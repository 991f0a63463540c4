"""Serialization codec for every record the persistence journal holds.

The journal (see :mod:`repro.persist.sqlite_backend`) stores two kinds of payload beside the
replicas' own PAX bytes (:meth:`~repro.layouts.pax.PaxBlock.to_bytes`):

- **JSON-friendly metadata** — replica infos (:class:`~repro.hail.replica_info.HailBlockReplicaInfo`),
  zone-map synopses (:data:`~repro.layouts.zonemap.ZoneRanges`), schemas, tuner state
  (:class:`~repro.engine.lifecycle.AdaptiveTuner`).  These travel as plain dict/list
  structures produced by the ``encode_*`` functions here, ready for ``json.dumps``; dates
  (the one non-JSON scalar the schemas allow) are wrapped in a ``{"__date__": "YYYY-MM-DD"}``
  tag so round-trips are type-exact.
- **Chunk CRCs** — a replica payload's per-chunk CRC32s (:mod:`repro.hdfs.checksum`), packed
  at 4 little-endian bytes each.

Every ``encode_*`` has a matching ``decode_*`` and the pair is a structural identity — the
property suite (``tests/test_property_persist.py``) drives randomized values through each
round-trip.  The tuner codec enumerates ``dataclasses.fields()`` so a new knob added to the
tuner persists automatically instead of silently defaulting after a restore.  A tuner payload
journaled before the tuner lost its per-attribute ledgers still decodes when it never used
them (``"per_attribute": false, "ledgers": {}``); one that did, or one with any other key the
tuner does not have, raises :class:`JournalCorruptError` naming the key.
"""

from __future__ import annotations

import dataclasses
import struct
from datetime import date
from typing import Any, Optional, Sequence

from repro.engine.lifecycle import AdaptiveTuner
from repro.hail.replica_info import HailBlockReplicaInfo
from repro.layouts.zonemap import ZoneRanges
from repro.query.schema import Field, FieldType, Schema


class JournalCorruptError(RuntimeError):
    """A journaled payload is missing, does not decode or cannot restore exactly; names it."""


# --------------------------------------------------------------------------- scalar values
#: JSON-native scalar types that pass through the codec unchanged.
_PLAIN_SCALARS = (bool, int, float, str)


def encode_value(value: Any) -> Any:
    """One scalar → its JSON-safe form (dates become ``{"__date__": iso}`` tags)."""
    if value is None or isinstance(value, _PLAIN_SCALARS):
        return value
    if isinstance(value, date):
        return {"__date__": value.isoformat()}
    raise TypeError(f"cannot persist scalar of type {type(value).__name__}: {value!r}")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        iso = value.get("__date__")
        year, month, day = (int(part) for part in iso.split("-"))
        return date(year, month, day)
    return value


# --------------------------------------------------------------------------- zone ranges
def encode_zone_ranges(ranges: Optional[ZoneRanges]) -> Optional[list]:
    """Zone-map synopsis → JSON list of ``[attribute, min, max]`` triples (or ``None``)."""
    if ranges is None:
        return None
    return [[attr, encode_value(lo), encode_value(hi)] for attr, lo, hi in ranges]


def decode_zone_ranges(encoded: Optional[list]) -> Optional[ZoneRanges]:
    """Inverse of :func:`encode_zone_ranges`, restoring the tuple-of-triples form."""
    if encoded is None:
        return None
    return tuple((attr, decode_value(lo), decode_value(hi)) for attr, lo, hi in encoded)


# --------------------------------------------------------------------------- replica infos
def encode_replica_info(info: HailBlockReplicaInfo) -> dict:
    """A Dir_rep entry → JSON dict covering every dataclass field (synopsis included)."""
    encoded = {}
    for spec in dataclasses.fields(HailBlockReplicaInfo):
        value = getattr(info, spec.name)
        if spec.name == "zone_ranges":
            value = encode_zone_ranges(value)
        encoded[spec.name] = value
    return encoded


def decode_replica_info(encoded: dict) -> HailBlockReplicaInfo:
    """Inverse of :func:`encode_replica_info`."""
    kwargs = dict(encoded)
    kwargs["zone_ranges"] = decode_zone_ranges(kwargs.get("zone_ranges"))
    return HailBlockReplicaInfo(**kwargs)


# --------------------------------------------------------------------------- schemas
def encode_schema(schema: Schema) -> dict:
    """A record schema → JSON dict (name, delimiter, ordered ``[name, type]`` pairs)."""
    return {
        "name": schema.name,
        "delimiter": schema.delimiter,
        "fields": [[f.name, f.ftype.value] for f in schema.fields],
    }


def decode_schema(encoded: dict) -> Schema:
    """Inverse of :func:`encode_schema`."""
    fields = [Field(name, FieldType(ftype)) for name, ftype in encoded["fields"]]
    return Schema(fields, name=encoded["name"], delimiter=encoded["delimiter"])


# --------------------------------------------------------------------------- tuner state
#: Keys of a tuner payload journaled while the tuner could split its ledger per attribute,
#: with the values that payload holds when it never did (its global state is then exact).
_RETIRED_TUNER_KEYS = {"per_attribute": False, "ledgers": {}}


def encode_tuner(tuner: Optional[AdaptiveTuner]) -> Optional[dict]:
    """The auto-tuner's full feedback state → JSON dict (``None`` when not tuning).

    Every field of the dataclass is a JSON-native scalar.
    """
    if tuner is None:
        return None
    return {spec.name: getattr(tuner, spec.name) for spec in dataclasses.fields(AdaptiveTuner)}


def decode_tuner(encoded: Optional[dict]) -> Optional[AdaptiveTuner]:
    """Inverse of :func:`encode_tuner`; also reads the per-attribute era's global payloads.

    Raises :class:`JournalCorruptError` naming the key for a payload that used per-attribute
    ledgers or holds a key that is no tuner field: neither can be restored exactly.
    """
    if encoded is None:
        return None
    names = {spec.name for spec in dataclasses.fields(AdaptiveTuner)}
    kwargs = {}
    for key, value in encoded.items():
        if key in names:
            kwargs[key] = value
        elif key not in _RETIRED_TUNER_KEYS:
            raise JournalCorruptError(f"journaled tuner: unknown key {key!r}")
        elif value != _RETIRED_TUNER_KEYS[key]:
            raise JournalCorruptError(
                f"journaled tuner: {key!r} is {value!r}; per-attribute tuner ledgers are no"
                " longer supported, so this state cannot be restored exactly"
            )
    return AdaptiveTuner(**kwargs)


# --------------------------------------------------------------------------- chunk CRCs
def encode_crcs(checksums: Sequence[int]) -> bytes:
    """Per-chunk CRC32s → 4 little-endian bytes each (what a ``Dir_rep`` row journals)."""
    return struct.pack(f"<{len(checksums)}I", *checksums)


def decode_crcs(blob: bytes) -> tuple[int, ...]:
    """Inverse of :func:`encode_crcs` (``struct.error`` on a blob of no whole number of CRCs)."""
    return struct.unpack(f"<{len(blob) // 4}I", blob)
