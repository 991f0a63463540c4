"""The central cost model: turns byte counts and hardware profiles into simulated seconds.

Everything the substrates (HDFS, MapReduce) and the systems (Hadoop, Hadoop++, HAIL) charge goes
through a single :class:`CostModel` instance so that calibration lives in one place
(:class:`CostParameters`).  The model is intentionally analytical — the paper's results are
driven by disk/network bandwidth, seeks, CPU parse/sort rates and per-task scheduling overhead,
all of which appear explicitly below.

Scaling
-------
Functional execution in this reproduction uses small blocks (kilobytes to a few megabytes of
real Python data).  ``CostParameters.data_scale`` multiplies byte and record counts when costs
are computed, so a functional 64 KB block can stand in for a logical 64 MB HDFS block while the
actual record contents stay laptop-sized.  Shapes (ratios between systems, crossovers) are
preserved because every system is scaled identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.cpu import CpuModel, CpuRates
from repro.cluster.disk import DiskModel
from repro.cluster.hardware import HardwareProfile
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node


@dataclass(frozen=True)
class CostParameters:
    """Calibration knobs of the cost model.

    The HDFS and MapReduce constants follow Hadoop 0.20 defaults (the version the paper uses):
    64 MB blocks, two map slots per TaskTracker (the 64 KB packet and the 512 B checksum chunk
    are ``repro.hdfs.chunk.PACKET_SIZE`` and ``CHUNK_SIZE``; the replication factor belongs to
    the system storing the replicas, not to the cost model).  The scheduling overheads reproduce the paper's
    observation (Section 6.4.1) that Hadoop "spends several seconds" to schedule and start a
    single short task.
    """

    # ---- HDFS constants -------------------------------------------------------------
    block_size: int = 64 * 1024 * 1024

    # ---- scaling --------------------------------------------------------------------
    #: Multiplier applied to functional byte/record counts before charging costs.
    data_scale: float = 1.0

    # ---- MapReduce framework --------------------------------------------------------
    #: Map slots per TaskTracker (Hadoop 0.20 default).
    map_slots_per_node: int = 2
    #: Fixed per-job overhead: job submission, split computation, job setup/cleanup tasks.
    job_startup_s: float = 6.5
    #: Per-task overhead: heartbeat-based assignment, JVM start, task initialisation/commit.
    task_scheduling_overhead_s: float = 3.6
    #: Additional per-task overhead when the input format must read per-block index headers
    #: during the split phase (Hadoop++ does; HAIL does not, Section 6.4.1).
    split_header_read_s: float = 0.012
    #: Fixed per-block RecordReader setup cost (opening streams, allocating buffers).
    record_reader_setup_s: float = 0.05

    # ---- upload pipeline ------------------------------------------------------------
    #: Per-block fixed overhead on the client (namenode round trip, pipeline setup).
    block_setup_s: float = 0.02

    # ---- variance -------------------------------------------------------------------
    #: Enable sampling of I/O variance (EC2 experiments); deterministic given the seed.
    enable_variance: bool = True
    variance_seed: int = 1234


class CostModel:
    """Produces simulated durations for disk, network, CPU and framework events.

    One :class:`CostModel` is shared by every component of a simulated deployment; per-node
    models (:class:`DiskModel`, :class:`CpuModel`) are derived lazily from each node's hardware
    profile and cached.
    """

    def __init__(
        self,
        params: CostParameters | None = None,
        cpu_rates: CpuRates | None = None,
    ) -> None:
        self.params = params if params is not None else CostParameters()
        self._cpu_rates = cpu_rates if cpu_rates is not None else CpuRates()
        self.network = NetworkModel()
        self._disk_cache: dict[str, DiskModel] = {}
        self._cpu_cache: dict[str, CpuModel] = {}
        self._rng = random.Random(self.params.variance_seed)

    # ------------------------------------------------------------------ scaling helpers
    def scale_bytes(self, num_bytes: float) -> float:
        """Apply ``data_scale`` to a functional byte count."""
        return num_bytes * self.params.data_scale

    def scale_count(self, count: float) -> float:
        """Apply ``data_scale`` to a functional record/value count."""
        return count * self.params.data_scale

    # ------------------------------------------------------------------ per-node models
    def disk(self, node: Node | HardwareProfile) -> DiskModel:
        """Disk model for a node (cached per hardware profile)."""
        hardware = node.hardware if isinstance(node, Node) else node
        model = self._disk_cache.get(hardware.name)
        if model is None:
            model = DiskModel(hardware=hardware)
            self._disk_cache[hardware.name] = model
        return model

    def cpu(self, node: Node | HardwareProfile) -> CpuModel:
        """CPU model for a node (cached per hardware profile)."""
        hardware = node.hardware if isinstance(node, Node) else node
        model = self._cpu_cache.get(hardware.name)
        if model is None:
            model = CpuModel(hardware=hardware, rates=self._cpu_rates)
            self._cpu_cache[hardware.name] = model
        return model

    # ------------------------------------------------------------------ variance
    def vary_io(self, node: Node | HardwareProfile, seconds: float) -> float:
        """Apply the node's I/O variance to an I/O-bound duration.

        EC2 instances exhibit substantial run-to-run I/O variance (the paper cites [30] and
        observes that I/O-bound Hadoop suffers from it more than CPU-bound HAIL).  The sampled
        factor is always >= a small floor so durations never become negative.
        """
        if seconds <= 0 or not self.params.enable_variance:
            return max(seconds, 0.0)
        hardware = node.hardware if isinstance(node, Node) else node
        if hardware.io_variance <= 0:
            return seconds
        factor = self._rng.gauss(1.0, hardware.io_variance)
        return seconds * max(0.5, factor)

    # ------------------------------------------------------------------ framework events
    def job_startup(self) -> float:
        """Fixed cost of submitting a MapReduce job (JobClient, split phase, setup task)."""
        return self.params.job_startup_s

    def task_overhead(self) -> float:
        """Per-task scheduling/launch/commit overhead."""
        return self.params.task_scheduling_overhead_s

    def split_phase(self, num_blocks: int, reads_block_headers: bool) -> float:
        """Cost of the JobClient split phase.

        ``reads_block_headers`` models Hadoop++, whose input format must fetch a header from
        every block before it can compute splits; HAIL keeps that information in the namenode's
        replica directory (Dir_rep) and avoids the reads (Section 6.4.1).
        """
        if not reads_block_headers:
            return 0.0
        return num_blocks * self.params.split_header_read_s

    def block_setup(self) -> float:
        """Per-block pipeline setup cost during upload."""
        return self.params.block_setup_s

    def reader_setup(self) -> float:
        """Per-block RecordReader setup cost (stream opening, buffers)."""
        return self.params.record_reader_setup_s

    # ------------------------------------------------------------------ calibration
    def describe(self) -> dict:
        """Expose the calibration (used by experiment reports and EXPERIMENTS.md)."""
        return {
            "block_size": self.params.block_size,
            "data_scale": self.params.data_scale,
            "map_slots_per_node": self.params.map_slots_per_node,
            "job_startup_s": self.params.job_startup_s,
            "task_scheduling_overhead_s": self.params.task_scheduling_overhead_s,
        }
