"""Hand-written map output in the one form the shuffle and the joins take.

A user function emits ``(key, value)`` pairs; everything after it — a map task's output, a
scan job's, the shuffle's input and output — is a key column beside a value column
(:class:`~repro.mapreduce.job.Emitted`).  A test that writes its map output as pairs builds
that form here.
"""

from __future__ import annotations

from repro.mapreduce.job import Emitted, unpaired


def emitted(pairs: list[tuple]) -> Emitted:
    """``pairs`` as the key and value columns a map task hands on."""
    return Emitted(*unpaired(pairs))
