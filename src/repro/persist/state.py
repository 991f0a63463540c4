"""Capture and restore of a deployment's durable state.

This module defines the *encoded state* the journal holds: a plain dict (JSON metadata
plus PAX byte blobs, via :mod:`repro.persist.codec`) describing everything a killed HAIL
deployment needs to come back with its learned index pool intact::

    {
      "paths":   {path: {"schema": ..., "position": n}},
      "blocks":  {block_id: {"path", "num_records", "records_blob", "bad_lines",
                             "text_size_bytes", "dir_block": [datanode ids, in order],
                             "replicas": {datanode_id: {"info", "payload_blob", "meta"}},
                             "usage": {datanode_id: [use_count, last_tick]},
                             "evictions": {attribute: datanode_id}}},
      "control": {"next_block_id", "usage_tick", "adaptive_salt", "tuner", "demand"},
    }

Capture reads only public namenode/datanode accessors.  A block's *directory* state (hosts,
infos, metas, zone synopses, usage, tombstones) is captured wholesale: every journal write
replaces it with whatever the in-memory directories currently say, so the journal can never
drift from the authority it mirrors.  Its *blobs* go by identity: :func:`capture_block` also
returns the block's *blob sources* — ``{datanode_id: the replica's PaxBlock, None: the
LogicalBlock}`` — and leaves out every blob whose source is still the object the caller last
committed.  Blocks are immutable (``layouts/pax.py``): same object, same bytes; an equal
copy merely costs a redundant write.  :func:`checkpoint_state` is the full capture.

Restore (:func:`restore_system`) rebuilds a **fresh** deployment from that state.  Replica
payloads come back by re-running the shared sort-and-index entry point
(:meth:`~repro.hail.hail_block.HailBlock.build`) over the journaled — already sorted — PAX
bytes: the sort permutation is stable, so an already-sorted column yields the identity
permutation and the restored replica is byte-identical to the one that was journaled.
That, plus restoring the usage clock, allocation counter, adaptive salt, and the tuner's
ledger verbatim, is what makes post-restore query answers bit-identical to an uninterrupted run
(``tests/test_persist_recovery.py``).  Control state follows the *restoring* configuration:
a journaled tuner comes back only into a deployment that auto-tunes (a tuning deployment over
a journal without one keeps its fresh tuner), and balancer demand only into one that
balances.  A tuner journaled with per-attribute ledgers is refused with
:class:`JournalCorruptError` (see :func:`~repro.persist.codec.decode_tuner`).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Mapping

from repro.persist import codec
from repro.persist.codec import JournalCorruptError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hdfs.filesystem import Hdfs
    from repro.hdfs.namenode import NameNode


def empty_state() -> dict:
    """A fresh encoded-state skeleton (what a brand-new journal holds)."""
    return {"paths": {}, "blocks": {}, "control": {}}


# --------------------------------------------------------------------------- capture
def apply_path(state: dict, path: str, schema) -> None:
    """Record a newly created file path (journal side of ``sync_path``)."""
    state["paths"][path] = {
        "schema": codec.encode_schema(schema),
        "position": len(state["paths"]),
    }


def capture_block(hdfs: "Hdfs", block_id: int, committed: Mapping) -> tuple[dict, dict]:
    """One block's journal entry and its blob sources, read from the in-memory state.

    Covers the logical block (records as PAX bytes, bad lines), the ``Dir_block`` host list
    in registration order, every replica's payload bytes + physical metadata + ``Dir_rep``
    info (zone-map synopsis included), the per-replica LRU statistics, and the block's
    eviction tombstones.  ``committed`` is the sources of the entry the caller last
    committed for this block (``{}`` for none): a ``records_blob`` / ``payload_blob`` whose
    source is still that object is left out — the committed bytes stand.
    """
    namenode = hdfs.namenode
    logical = namenode.logical_block(block_id)
    hosts = namenode.block_datanodes(block_id, alive_only=False)
    sources: dict = {None: logical}
    replicas: dict[int, dict] = {}
    usage: dict[int, list[int]] = {}
    for datanode_id in hosts:
        datanode = hdfs.datanode(datanode_id)
        replica = datanode.replica(block_id)
        payload = replica.payload
        info = namenode.replica_info(block_id, datanode_id)
        sources[datanode_id] = payload.pax
        replicas[datanode_id] = {
            "info": codec.encode_replica_info(info) if info is not None else None,
            "meta": {
                "num_rows": payload.pax.num_rows,
                "sort_attribute": payload.sort_attribute,
                "indexed": payload.index is not None,
                "bad_lines": list(payload.bad_lines),
                "partition_size": payload.partition_size,
                "logical_partition_size": payload.logical_partition_size,
                "pax_layout": payload.pax_layout,
                "checksummed": bool(replica.checksums),
            },
        }
        if committed.get(datanode_id) is not payload.pax:
            replicas[datanode_id]["payload_blob"] = payload.pax.to_bytes()
        use_count, last_tick = namenode.index_usage(block_id, datanode_id)
        if (use_count, last_tick) != (0, 0):
            usage[datanode_id] = [use_count, last_tick]
    entry = {
        "path": logical.path,
        "num_records": logical.num_records,
        "bad_lines": list(logical.bad_lines),
        "text_size_bytes": logical.text_size_bytes,
        "dir_block": hosts,
        "replicas": replicas,
        "usage": usage,
        "evictions": namenode.block_eviction_tombstones(block_id),
    }
    if committed.get(None) is not logical:
        entry["records_blob"] = codec.encode_records(logical.schema, logical.records)
    return entry, sources


def capture_namenode_control(namenode: "NameNode") -> dict:
    """The namenode-owned control scalars journaled alongside every block sync."""
    return {"next_block_id": namenode.next_block_id, "usage_tick": namenode.usage_tick}


def capture_lifecycle_control(lifecycle) -> dict:
    """The lifecycle manager's learned control state: tuner feedback and balancer demand.

    Journaled after every post-job lifecycle pass and by every full capture; the last block
    of :func:`restore_system` is its inverse.
    """
    control: dict = {"tuner": codec.encode_tuner(lifecycle.tuner)}
    if lifecycle.balancer is not None:
        control["demand"] = dict(lifecycle.balancer.demand)
    return control


def capture_system_control(system) -> dict:
    """The system-owned control state: adaptive salt, tuner feedback, balancer demand."""
    control: dict = {"adaptive_salt": getattr(system, "_adaptive_salt", 0)}
    lifecycle = getattr(system, "lifecycle", None)
    if lifecycle is not None:
        control.update(capture_lifecycle_control(lifecycle))
    return control


def capture_system(system) -> tuple[dict, dict]:
    """A full capture plus every block's blob sources: what ``checkpoint()`` stores and keeps."""
    hdfs = system.hdfs
    state = empty_state()
    sources: dict[int, dict] = {}
    for path in sorted(hdfs.namenode.list_files(), key=_path_order(system)):
        apply_path(state, path, system.schema_of(path))
    for path in state["paths"]:
        for block_id in hdfs.namenode.file_blocks(path):
            state["blocks"][block_id], sources[block_id] = capture_block(hdfs, block_id, {})
    state["control"].update(capture_namenode_control(hdfs.namenode))
    state["control"].update(capture_system_control(system))
    return state, sources


def checkpoint_state(system) -> dict:
    """A full capture of one system's durable state (the ``checkpoint()`` payload).

    Census keep list (``tests/test_census.py``): ground truth for tests (the incremental journal
    must equal this full capture).
    """
    return capture_system(system)[0]


def _path_order(system):
    """Sort key preserving upload order where known (schema-catalog insertion order)."""
    known = {path: i for i, path in enumerate(getattr(system, "_schemas", {}))}
    return lambda path: (known.get(path, len(known)), path)


# --------------------------------------------------------------------------- restore
def restore_system(system, state: dict) -> None:
    """Rebuild a fresh deployment's directories, payloads and control state from a journal.

    The target ``system`` must be empty (as built by a fresh ``Session.deploy``); paths are
    recreated in journal order, blocks re-adopted under their original ids (ascending —
    allocation order, since the id counter is monotone), replicas re-seated host by host in
    ``Dir_block`` registration order, and finally the LRU statistics, tombstones and control
    scalars are put back verbatim.  Tombstones go in *after* replica registration because
    ``register_replica`` clears tombstones for freshly indexed attributes — journal entries
    captured from a live system never contain both, so restore must not re-trigger that rule.
    """
    from repro.hail.hail_block import HailBlock
    from repro.hdfs.block import LogicalBlock
    from repro.hdfs.checksum import chunk_checksums
    from repro.layouts.pax import PaxBlock

    hdfs = system.hdfs
    namenode = hdfs.namenode
    ordered_paths = sorted(state["paths"], key=lambda p: state["paths"][p]["position"])
    schemas = {}
    for path in ordered_paths:
        schema = codec.decode_schema(state["paths"][path]["schema"])
        schemas[path] = schema
        namenode.create_file(path)
        system._schemas[path] = schema
    for block_id in sorted(state["blocks"]):
        entry = state["blocks"][block_id]
        schema = schemas[entry["path"]]
        records = codec.decode_records(schema, entry["records_blob"], entry["num_records"])
        logical = LogicalBlock(
            block_id=block_id,
            path=entry["path"],
            records=records,
            schema=schema,
            bad_lines=list(entry["bad_lines"]),
            text_size_bytes=entry["text_size_bytes"],
        )
        namenode.adopt_block(entry["path"], logical, block_id)
        for datanode_id in entry["dir_block"]:
            stored = entry["replicas"][datanode_id]
            meta = stored["meta"]
            try:
                pax = PaxBlock.from_bytes(schema, stored["payload_blob"], meta["num_rows"])
            except (struct.error, ValueError) as exc:
                raise JournalCorruptError(
                    f"replica of block {block_id} on datanode {datanode_id}: the journaled"
                    f" payload does not decode as {meta['num_rows']} rows"
                ) from exc
            # Re-run the shared sort-and-index path over the already-sorted rows: the
            # stable sort yields the identity permutation, so the rebuilt replica is
            # byte-identical to the journaled one, index included.
            block = HailBlock.build(
                schema,
                pax.records(),
                meta["sort_attribute"] if meta["indexed"] else None,
                partition_size=meta["partition_size"],
                bad_lines=meta["bad_lines"],
                logical_partition_size=meta["logical_partition_size"],
            )
            block.pax_layout = meta["pax_layout"]
            checksums: tuple[int, ...] = ()
            if meta["checksummed"]:
                checksums = tuple(chunk_checksums(block.pax.to_bytes()))
            info = (
                codec.decode_replica_info(stored["info"])
                if stored["info"] is not None
                else None
            )
            hdfs.install_replica(block_id, datanode_id, block, info, checksums)
        for datanode_id, (use_count, last_tick) in entry["usage"].items():
            namenode.set_index_usage(block_id, int(datanode_id), use_count, last_tick)
        for attribute, datanode_id in entry["evictions"].items():
            namenode.record_index_eviction(block_id, attribute, datanode_id)
    control = state["control"]
    if "next_block_id" in control:
        namenode.set_next_block_id(control["next_block_id"])
    if "usage_tick" in control:
        namenode.set_usage_tick(control["usage_tick"])
    if hasattr(system, "_adaptive_salt"):
        system._adaptive_salt = control.get("adaptive_salt", 0)
    lifecycle = getattr(system, "lifecycle", None)
    if lifecycle is None:
        return
    if lifecycle.tuner is not None:
        tuner = codec.decode_tuner(control.get("tuner"))
        if tuner is not None:
            lifecycle.tuner = tuner
    if lifecycle.balancer is not None and control.get("demand"):
        lifecycle.balancer.demand.update(control["demand"])
