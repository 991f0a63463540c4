"""Serialization codec for every record the persistence journal holds.

The journal (see :mod:`repro.persist.sqlite_backend`) stores two kinds of payload:

- **JSON-friendly metadata** — replica infos (:class:`~repro.hail.replica_info.HailBlockReplicaInfo`),
  zone-map synopses (:data:`~repro.layouts.zonemap.ZoneRanges`), schemas, tuner state
  (:class:`~repro.engine.lifecycle.AdaptiveTuner` and its per-attribute
  :class:`~repro.engine.lifecycle.AttributeLedger` entries).  These travel as plain dict/list
  structures produced by the ``encode_*`` functions here, ready for ``json.dumps``; dates
  (the one non-JSON scalar the schemas allow) are wrapped in a ``{"__date__": "YYYY-MM-DD"}``
  tag so round-trips are type-exact.
- **Column data** — logical block records and replica payloads, which reuse the existing PAX
  wire format (:meth:`~repro.layouts.pax.PaxBlock.to_bytes`), so a persisted block is
  byte-identical to what the simulated datanodes already account for.

Every ``encode_*`` has a matching ``decode_*`` and the pair is a structural identity — the
property suite (``tests/test_property_persist.py``) drives randomized values through each
round-trip.  The tuner/ledger codecs enumerate ``dataclasses.fields()`` so a new knob added to
either dataclass persists automatically instead of silently defaulting after a restore.
"""

from __future__ import annotations

import dataclasses
from datetime import date
from typing import Any, Optional, Sequence

from repro.engine.lifecycle import AdaptiveTuner, AttributeLedger
from repro.hail.replica_info import HailBlockReplicaInfo
from repro.layouts.pax import PaxBlock
from repro.layouts.schema import Field, FieldType, Schema
from repro.layouts.zonemap import ZoneRanges

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
def encode_ledger(ledger: AttributeLedger) -> dict:
    """One per-attribute tuner ledger → JSON dict of all of its dataclass fields."""
    return {spec.name: getattr(ledger, spec.name) for spec in dataclasses.fields(AttributeLedger)}


def decode_ledger(encoded: dict) -> AttributeLedger:
    """Inverse of :func:`encode_ledger`."""
    return AttributeLedger(**encoded)


def encode_tuner(tuner: Optional[AdaptiveTuner]) -> Optional[dict]:
    """The auto-tuner's full feedback state → JSON dict (``None`` when not tuning).

    Every non-ledger field of the dataclass is a JSON-native scalar; the per-attribute
    ledgers nest as a ``{attribute: ledger}`` map via :func:`encode_ledger`.
    """
    if tuner is None:
        return None
    encoded = {}
    for spec in dataclasses.fields(AdaptiveTuner):
        if spec.name == "ledgers":
            continue
        encoded[spec.name] = getattr(tuner, spec.name)
    encoded["ledgers"] = {attr: encode_ledger(ledger) for attr, ledger in tuner.ledgers.items()}
    return encoded


def decode_tuner(encoded: Optional[dict]) -> Optional[AdaptiveTuner]:
    """Inverse of :func:`encode_tuner`."""
    if encoded is None:
        return None
    kwargs = dict(encoded)
    ledgers = kwargs.pop("ledgers", {})
    tuner = AdaptiveTuner(**kwargs)
    tuner.ledgers = {attr: decode_ledger(ledger) for attr, ledger in ledgers.items()}
    return tuner


# --------------------------------------------------------------------------- column data
def encode_records(schema: Schema, records: Sequence[tuple]) -> bytes:
    """Typed records → the PAX wire format (the datanodes' own byte representation)."""
    return PaxBlock.from_records(schema, records).to_bytes()


def decode_records(schema: Schema, payload: bytes, num_records: int) -> list[tuple]:
    """Inverse of :func:`encode_records`."""
    if num_records == 0:
        return []
    return PaxBlock.from_bytes(schema, payload, num_records).records()
