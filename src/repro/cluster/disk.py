"""Disk cost model: sequential transfers, seeks, read/write contention — and disk pressure.

Besides the timing model (:class:`DiskModel`), this module defines the *capacity* side of a
node's disks: :class:`DiskPressurePolicy` turns a per-node byte ceiling plus high/low watermarks
into the two questions the adaptive-index lifecycle manager asks — "is this node under
pressure?" and "how many bytes must eviction free?" (see :mod:`repro.engine.lifecycle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cluster.hardware import HardwareProfile

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class DiskPressurePolicy:
    """Per-node disk-capacity policy: when is a node full enough to trigger eviction?

    Mirrors the watermark scheme of real storage daemons (HDFS balancer thresholds, Elasticsearch
    flood stages): a node whose tracked usage exceeds ``high_watermark * capacity_bytes`` is
    *under pressure*, and eviction should free bytes until usage falls back to
    ``low_watermark * capacity_bytes`` (the gap between the watermarks is hysteresis — it keeps
    the evictor from firing on every job once usage hovers near the ceiling).  The policy is
    agnostic about *which* byte count it bounds; the adaptive-index lifecycle manager feeds it
    each node's adaptive-replica footprint (its opportunistic-storage budget).

    Attributes
    ----------
    capacity_bytes:
        Per-node ceiling in bytes for the tracked usage, positive and finite; ``None``
        disables pressure entirely (nothing is ever evicted, the pre-lifecycle behaviour).
    high_watermark:
        Fraction of ``capacity_bytes`` above which the node counts as under pressure.
    low_watermark:
        Fraction of ``capacity_bytes`` eviction drains the node down to.
    """

    capacity_bytes: Optional[float] = None
    high_watermark: float = 0.85
    low_watermark: float = 0.70

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and not 0 < self.capacity_bytes < math.inf:
            raise ValueError(
                "capacity_bytes must be positive and finite (or None to disable pressure)"
            )
        if not 0.0 < self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError("watermarks must satisfy 0 < low <= high <= 1")

    @property
    def enabled(self) -> bool:
        """True when a capacity ceiling is configured."""
        return self.capacity_bytes is not None

    def under_pressure(self, used_bytes: float) -> bool:
        """True when ``used_bytes`` exceeds the high watermark of the capacity ceiling."""
        if self.capacity_bytes is None:
            return False
        return used_bytes > self.high_watermark * self.capacity_bytes

    def bytes_to_free(self, used_bytes: float) -> float:
        """Bytes eviction must release to bring ``used_bytes`` down to the low watermark."""
        if self.capacity_bytes is None:
            return 0.0
        return max(0.0, used_bytes - self.low_watermark * self.capacity_bytes)


@dataclass(frozen=True)
class DiskModel:
    """Charges simulated seconds for disk operations on a node.

    The model follows the arithmetic the paper itself uses in Section 3.5 (e.g. "a realistic
    hard disk transfer rate of 100 MB/sec", "initial seek of 5 ms"): a sequential access costs
    one seek plus ``bytes / bandwidth``.  A single ``contention`` knob (default 0.35) models the
    throughput loss when many replication streams interleave reads and writes on the same
    spindles — it is calibrated so that a datanode's *effective* upload bandwidth lands near the
    ~55 MB/s the paper's measured upload times imply, well below the raw sequential rate.
    """

    hardware: HardwareProfile
    contention: float = 0.35

    def __post_init__(self) -> None:
        # The read path's constants, bound once per model: one seek, one stream's bytes/s.
        object.__setattr__(self, "_seek_s", self.hardware.disk_seek_ms / 1000.0)
        object.__setattr__(self, "_read_bytes_s", self.hardware.disk_read_mb_s * _MB)

    # ------------------------------------------------------------------ sequential access
    def sequential_read(self, num_bytes: float) -> float:
        """Seconds to read ``num_bytes`` sequentially with one reader."""
        if num_bytes <= 0:
            return 0.0
        return self._seek_s + num_bytes / self._read_bytes_s

    def sequential_write(self, num_bytes: float) -> float:
        """Seconds to write ``num_bytes`` sequentially with one writer."""
        if num_bytes <= 0:
            return 0.0
        return self.seek() + num_bytes / (self.hardware.disk_write_mb_s * _MB)

    def mixed_read_write(self, read_bytes: float, write_bytes: float) -> float:
        """Seconds for a workload that both reads and writes on the same disks.

        Reads and writes on the same spindles do not overlap for free; the combined volume is
        charged at a contention-degraded bandwidth, spread over the node's independent disks.
        """
        total = max(read_bytes, 0.0) + max(write_bytes, 0.0)
        if total <= 0:
            return 0.0
        read_bw = self.hardware.aggregate_disk_read_mb_s
        write_bw = self.hardware.aggregate_disk_write_mb_s
        blended = self.contention * min(read_bw, write_bw)
        return total / (blended * _MB)

    # ------------------------------------------------------------------ random access
    def seek(self) -> float:
        """Seconds for one average seek."""
        return self._seek_s

    def random_read(self, num_bytes: float, num_seeks: int = 1) -> float:
        """Seconds for a random access: ``num_seeks`` seeks plus the data transfer."""
        if num_bytes <= 0 and num_seeks <= 0:
            return 0.0
        transfer = max(num_bytes, 0.0) / self._read_bytes_s
        return max(num_seeks, 0) * self._seek_s + transfer
