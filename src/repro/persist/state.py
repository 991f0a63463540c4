"""Capture and restore of a deployment's durable state.

This module defines the *encoded state* the journal holds: a plain dict (JSON metadata
plus PAX byte blobs, via :mod:`repro.persist.codec`) describing everything a killed HAIL
deployment needs to come back with its learned index pool intact::

    {
      "paths":   {path: {"schema": ..., "position": n}},
      "blocks":  {block_id: {"path", "num_records", "bad_lines", "text_size_bytes",
                             "dir_block": [datanode ids, in order],
                             "replicas": {datanode_id: {"info", "payload_blob",
                                                         "crcs_blob", "meta"}},
                             # (a delta capture leaves out the committed replicas)
                             "usage": {datanode_id: [use_count, last_tick]},
                             "evictions": {attribute: datanode_id}}},
      "control": {"next_block_id", "usage_tick", "adaptive_salt", "tuner", "demand"},
    }

Capture reads only public namenode/datanode accessors.  A block's *directory* state (hosts,
usage, tombstones, and each replica's info, meta and zone synopsis) is read from the
in-memory directories at every journal write, so the journal can never drift from the
authority it mirrors.  What was already committed goes by identity: :func:`capture_block`
also returns the block's *sources* — ``{datanode_id: ReplicaSource(PaxBlock, its chunk CRCs,
the payload, its Dir_rep entry), None: the LogicalBlock}`` — and, against the sources the
caller last committed, leaves out every replica whose payload and ``Dir_rep`` entry are still
the committed objects (neither is encoded; the backend keeps the committed row), and every
payload blob whose ``PaxBlock`` is still the committed one.  The backend likewise writes a
block's ``blocks`` row only for a ``LogicalBlock`` it has not committed, and of the other
rows only those that differ from the ones it last committed.  Blocks and ``Dir_rep`` entries
are immutable (``layouts/pax.py``, ``HailBlock``, the frozen ``HailBlockReplicaInfo``): same
object, same bytes; an equal copy merely costs a redundant write.  The block's rows are not
journaled apart from its replicas: every replica holds all of them, sorted its own way.
:func:`checkpoint_state` is the full capture.

The directory is the **checksum authority**: every replica entry carries its payload's chunk
CRCs (``crcs_blob``, 4 bytes per 512-byte chunk), journaled in the namenode's ``Dir_rep`` row,
never beside the payload, so a node database that rolled back together with a stale payload
cannot vouch for it.  This module is the only place chunk CRCs are computed: no replica holds
them in memory, and the cost model charges every replica's checksum pass regardless.
:func:`capture_block` computes them from the bytes it is about to write, once per distinct
``PaxBlock`` object — replicas sorted alike share one object, hence one encode and one CRC
blob.  A payload object the block already committed, on any node, reuses its committed CRCs
(the blob source is the pair ``(PaxBlock, crcs_blob)``), so a sync that writes no new payload
object — an eviction's downgrade, a migration — computes no CRC.

Restore (:func:`restore_system`) rebuilds a **fresh** deployment from that state.  It
checks every payload against its journaled CRCs before decoding it and refuses a mismatch with
:class:`JournalCorruptError` naming the block, the datanode and the database file.  Each
distinct payload of a block (rows whose ``crcs_blob`` and ``payload_blob`` are equal, as
replicas that shared one ``PaxBlock`` journal them) is decoded once and installed as it
stands: its sort column is already sorted, so only the sparse index is rebuilt over it
(:meth:`~repro.hail.index.HailIndex.build`, which refuses an unsorted column), and the
restored replica is byte-identical to the journaled one.  The ``LogicalBlock`` is metadata
only: its row count, bad lines and text size come from the journaled ``blocks`` row, and its
rows live only in the replicas just restored.  A replica whose row count is not the block's,
whose sort column is not sorted, or a block with no replica at all is refused with
:class:`JournalCorruptError` naming the block (and the datanode).  That, plus restoring the
usage clock, allocation counter, adaptive salt, and the tuner's ledger verbatim, is what makes
post-restore query answers bit-identical to an uninterrupted run
(``tests/test_persist_recovery.py``).  Control state follows the *restoring* configuration:
a journaled tuner comes back only into a deployment that auto-tunes (a tuning deployment over
a journal without one keeps its fresh tuner), and balancer demand only into one that
balances.  A tuner journaled with per-attribute ledgers is refused with
:class:`JournalCorruptError` (see :func:`~repro.persist.codec.decode_tuner`).
"""

from __future__ import annotations

import struct
from typing import Any, Mapping, NamedTuple

from repro.hail.hail_block import HailBlock
from repro.hail.index import HailIndex
from repro.hdfs.block import LogicalBlock
from repro.hdfs.checksum import chunk_checksums, verify_chunk_checksums
from repro.hdfs.filesystem import Hdfs
from repro.hdfs.namenode import NameNode
from repro.layouts.pax import PaxBlock
from repro.persist import codec
from repro.persist.codec import JournalCorruptError


def node_db_name(datanode_id: int) -> str:
    """File name of one datanode's payload database in the journal directory."""
    return f"node_{datanode_id}.db"


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


class ReplicaSource(NamedTuple):
    """What one replica's journal rows were captured from: the ``PaxBlock`` its payload row
    holds and that block's chunk CRCs, then the payload and ``Dir_rep`` entry its ``dir_rep``
    row describes."""

    pax: PaxBlock
    crcs_blob: bytes
    payload: HailBlock
    info: Any


def capture_block(hdfs: Hdfs, block_id: int, committed: Mapping) -> tuple[dict, dict]:
    """One block's journal entry and its blob sources, read from the in-memory state.

    Covers the logical block (row count, bad lines, text size), the ``Dir_block`` host list
    in registration order, every replica's payload bytes + chunk CRCs + physical metadata +
    ``Dir_rep`` info (zone-map synopsis included), the per-replica LRU statistics, and the
    block's eviction tombstones.  ``committed`` is the sources of the entry the caller last
    committed for this block (``{}`` for none).  A replica whose payload and ``Dir_rep``
    entry are still the committed objects is left out of ``replicas`` (its committed rows
    stand, and nothing of it is encoded); of the others, a ``payload_blob`` whose
    ``PaxBlock`` is still the committed one is left out.  CRCs are computed once per payload
    object the block has not committed on any node (module doc).
    """
    namenode = hdfs.namenode
    logical = namenode.logical_block(block_id)
    hosts = namenode.block_datanodes(block_id, alive_only=False)
    sources: dict = {None: logical}
    replicas: dict[int, dict] = {}
    usage: dict[int, list[int]] = {}
    # Keyed by payload object id: every object stays alive for the whole capture (held by
    # ``committed`` or by a replica), so no two of them share an id.
    crcs_by_pax = {
        id(source.pax): source.crcs_blob
        for key, source in committed.items()
        if key is not None
    }
    bytes_by_pax: dict[int, bytes] = {}
    for datanode_id in hosts:
        payload = hdfs.datanode(datanode_id).replica(block_id).payload
        info = namenode.replica_info(block_id, datanode_id)
        source = committed.get(datanode_id)
        if source is not None and source.payload is payload and source.info is info:
            sources[datanode_id] = source
        else:
            pax = payload.pax
            stored = replicas[datanode_id] = {
                "info": codec.encode_replica_info(info) if info is not None else None,
                "meta": {
                    "num_rows": pax.num_rows,
                    "sort_attribute": payload.sort_attribute,
                    "indexed": payload.index is not None,
                    "bad_lines": list(payload.bad_lines),
                    "partition_size": payload.partition_size,
                    "logical_partition_size": payload.logical_partition_size,
                    "pax_layout": payload.pax_layout,
                },
            }
            key = id(pax)
            if source is None or source.pax is not pax:
                if key not in bytes_by_pax:
                    bytes_by_pax[key] = pax.to_bytes()
                stored["payload_blob"] = bytes_by_pax[key]
            if key not in crcs_by_pax:
                crcs_by_pax[key] = codec.encode_crcs(chunk_checksums(stored["payload_blob"]))
            stored["crcs_blob"] = crcs_by_pax[key]
            sources[datanode_id] = ReplicaSource(pax, stored["crcs_blob"], payload, info)
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
    return entry, sources


def capture_namenode_control(namenode: NameNode) -> dict:
    """The namenode-owned control scalars journaled alongside every block sync."""
    return {"next_block_id": namenode.next_block_id, "usage_tick": namenode.usage_tick}


def capture_lifecycle_control(lifecycle) -> dict:
    """The lifecycle manager's learned control state: tuner feedback and balancer demand.

    Journaled by ``HailInputFormat.finish_run`` after every post-job lifecycle pass and by
    every full capture; the last block of :func:`restore_system` is its inverse.
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
        if not entry["dir_block"]:
            raise JournalCorruptError(f"block {block_id}: no journaled replica holds its rows")
        decoded: dict[tuple[bytes, bytes], PaxBlock] = {}
        replicas = {
            datanode_id: _restore_replica(block_id, datanode_id, schema, entry, decoded)
            for datanode_id in entry["dir_block"]
        }
        logical = LogicalBlock(
            block_id=block_id,
            path=entry["path"],
            num_records=entry["num_records"],
            schema=schema,
            bad_lines=list(entry["bad_lines"]),
            text_size_bytes=entry["text_size_bytes"],
        )
        namenode.adopt_block(entry["path"], logical, block_id)
        for datanode_id, (block, info) in replicas.items():
            hdfs.install_replica(block_id, datanode_id, block, info)
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


def _restore_replica(block_id: int, datanode_id: int, schema, entry: dict, decoded: dict):
    """One journaled replica as ``(payload, Dir_rep entry)``, ready to install.

    ``decoded`` maps the block's already decoded ``(crcs_blob, payload_blob)`` pairs to their
    ``PaxBlock``: equal rows are checked and decoded once and share the block, as they did
    before the kill.
    """
    stored = entry["replicas"][datanode_id]
    meta = stored["meta"]
    attribute = meta["sort_attribute"] if meta["indexed"] else None
    key = (stored["crcs_blob"], stored["payload_blob"])
    index = None
    try:
        if meta["num_rows"] != entry["num_records"]:
            raise ValueError(f"{meta['num_rows']} rows where the block has {entry['num_records']}")
        if key not in decoded:
            _verify_payload(block_id, datanode_id, stored)
            decoded[key] = PaxBlock.from_bytes(schema, stored["payload_blob"], meta["num_rows"])
        pax = decoded[key]
        if attribute is not None:
            index = HailIndex.build(attribute, pax.column(attribute), meta["partition_size"])
    except (struct.error, ValueError) as exc:
        raise JournalCorruptError(
            f"replica of block {block_id} on datanode {datanode_id}: the journaled payload"
            f" does not restore: {exc}"
        ) from exc
    block = HailBlock(
        pax,
        attribute,
        index,
        bad_lines=meta["bad_lines"],
        partition_size=meta["partition_size"],
        logical_partition_size=meta["logical_partition_size"],
    )
    block.pax_layout = meta["pax_layout"]
    info = codec.decode_replica_info(stored["info"]) if stored["info"] is not None else None
    return block, info


def _verify_payload(block_id: int, datanode_id: int, stored: dict) -> None:
    """Refuse a replica whose journaled payload does not match its journaled chunk CRCs."""
    try:
        intact = verify_chunk_checksums(
            stored["payload_blob"], codec.decode_crcs(stored["crcs_blob"])
        )
    except struct.error:
        intact = False
    if not intact:
        raise JournalCorruptError(
            f"replica of block {block_id} on datanode {datanode_id}: the payload in"
            f" {node_db_name(datanode_id)} does not match the chunk CRCs namenode.db"
            " journals for it"
        )
