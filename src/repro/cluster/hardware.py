"""Hardware profiles for simulated cluster nodes.

The paper uses four node types (Section 6.1 and 6.3.3):

- ``physical``:  2.66 GHz quad-core Xeon, 16 GB RAM, 6x750 GB SATA disks, 3x GbE.
- ``m1.large``:  EC2 large instance (2 weak virtual cores, moderate I/O).
- ``m1.xlarge``: EC2 extra-large instance (4 virtual cores, high I/O).
- ``cc1.4xlarge``: EC2 cluster-quadruple instance (8 fast cores, 10 GbE, lowest variance).

Scale-up (Table 2) depends on the *relative* CPU vs. I/O capability of each profile: HAIL's
upload is CPU-hungry (parse to binary, sort, index, checksum) while stock Hadoop's upload is
I/O-bound, so better CPUs close or invert the gap.  The numbers below are calibrated so that the
reproduction exhibits the same ordering and comparable factors; they are not vendor datasheets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class HardwareProfile:
    """Static description of one node's hardware.

    Attributes
    ----------
    name:
        Human-readable profile name (``"physical"``, ``"m1.large"``, ...).
    cores:
        Number of CPU cores usable for parsing/sorting/indexing.
    core_speed:
        Relative per-core speed; 1.0 is the physical cluster's 2.66 GHz Xeon core.
    disk_read_mb_s / disk_write_mb_s:
        Effective sequential disk bandwidth in MB/s for a single stream.
    disk_seek_ms:
        Average seek (plus rotational) latency in milliseconds.
    disks:
        Number of independent data disks (HDFS spreads block files across them).
    network_mb_s:
        Effective point-to-point network bandwidth in MB/s.
    ram_gb:
        Main memory; HAIL assembles blocks in memory, so this bounds concurrent blocks.
    io_variance:
        Coefficient of variation of I/O throughput.  EC2 nodes show much larger run-to-run
        variance than the physical cluster (Schad et al., PVLDB 2010, cited as [30]).
    """

    name: str
    cores: int
    core_speed: float
    disk_read_mb_s: float
    disk_write_mb_s: float
    disk_seek_ms: float
    disks: int
    network_mb_s: float
    ram_gb: float
    io_variance: float = 0.0

    # ------------------------------------------------------------------ factory methods
    @classmethod
    def physical(cls) -> "HardwareProfile":
        """The 10-node physical cluster used as the paper's primary testbed."""
        return cls(
            name="physical",
            cores=4,
            core_speed=1.0,
            disk_read_mb_s=95.0,
            disk_write_mb_s=80.0,
            disk_seek_ms=5.0,
            disks=6,
            network_mb_s=110.0,
            ram_gb=16.0,
            io_variance=0.02,
        )

    @classmethod
    def ec2_large(cls) -> "HardwareProfile":
        """EC2 ``m1.large``: two weak virtual cores, shared and variable I/O."""
        return cls(
            name="m1.large",
            cores=2,
            core_speed=0.4,
            disk_read_mb_s=70.0,
            disk_write_mb_s=60.0,
            disk_seek_ms=6.5,
            disks=2,
            network_mb_s=70.0,
            ram_gb=7.5,
            io_variance=0.12,
        )

    @classmethod
    def ec2_xlarge(cls) -> "HardwareProfile":
        """EC2 ``m1.xlarge``: four virtual cores, better I/O than ``m1.large``."""
        return cls(
            name="m1.xlarge",
            cores=4,
            core_speed=0.55,
            disk_read_mb_s=85.0,
            disk_write_mb_s=72.0,
            disk_seek_ms=6.0,
            disks=3,
            network_mb_s=90.0,
            ram_gb=15.0,
            io_variance=0.10,
        )

    @classmethod
    def ec2_cluster_quad(cls) -> "HardwareProfile":
        """EC2 ``cc1.4xlarge``: eight fast cores, 10 GbE, lowest variance of the EC2 types."""
        return cls(
            name="cc1.4xlarge",
            cores=8,
            core_speed=0.85,
            disk_read_mb_s=90.0,
            disk_write_mb_s=78.0,
            disk_seek_ms=5.5,
            disks=4,
            network_mb_s=400.0,
            ram_gb=23.0,
            io_variance=0.05,
        )

    @classmethod
    def by_name(cls, name: str) -> "HardwareProfile":
        """Look up a predefined profile by name.

        Raises
        ------
        KeyError
            If ``name`` does not match a predefined profile.
        """
        profiles = {
            "physical": cls.physical,
            "m1.large": cls.ec2_large,
            "large": cls.ec2_large,
            "m1.xlarge": cls.ec2_xlarge,
            "xlarge": cls.ec2_xlarge,
            "cc1.4xlarge": cls.ec2_cluster_quad,
            "cluster-quadruple": cls.ec2_cluster_quad,
        }
        try:
            return profiles[name]()
        except KeyError:
            raise KeyError(
                f"unknown hardware profile {name!r}; known: {sorted(profiles)}"
            ) from None

    # ------------------------------------------------------------------ derived quantities
    @property
    def aggregate_disk_read_mb_s(self) -> float:
        """Aggregate read bandwidth when several streams hit different disks."""
        return self.disk_read_mb_s * min(self.disks, 2)

    @property
    def aggregate_disk_write_mb_s(self) -> float:
        """Aggregate write bandwidth when several streams hit different disks."""
        return self.disk_write_mb_s * min(self.disks, 2)

    def scaled(self, **overrides: float) -> "HardwareProfile":
        """Return a copy of this profile with some attributes replaced.

        Useful for what-if experiments (e.g. doubling disk bandwidth).
        """
        return replace(self, **overrides)


#: Profiles in the order used by the scale-up experiment (Table 2).
SCALE_UP_PROFILES: tuple[str, ...] = ("m1.large", "m1.xlarge", "cc1.4xlarge", "physical")
