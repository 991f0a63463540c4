"""CPU cost model: parsing, binary conversion, sorting, index construction and checksums.

Rates are expressed for one reference core (the physical cluster's 2.66 GHz Xeon core,
``core_speed == 1.0``) and scale linearly with a node's ``core_speed`` and with the number of
cores assigned to the work.  Two kinds of terms appear:

- *per-byte* terms (MB/s throughputs) for streaming work such as checksumming, moving PAX
  minipages or scanning text, and
- *per-record* terms for work whose cost is dominated by per-tuple overhead in a JVM-style
  runtime (string splitting, object creation, tuple reconstruction) — the paper's RecordReader
  measurements (hundreds of milliseconds even for small index scans) are only explainable with
  such per-tuple costs.

The default values are calibrated so that the reproduction exhibits the paper's shapes: stock
uploads are I/O-bound on the physical cluster (hiding HAIL's parse/sort/index work) but become
CPU-bound on weak EC2 cores (Table 2), and full-scan RecordReader times land in the seconds
while index scans land in the tens-to-hundreds of milliseconds (Figures 6(b), 7(b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.hardware import HardwareProfile

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class CpuRates:
    """Throughputs (per reference core) of the CPU-bound steps."""

    # ---- upload-side, per byte -------------------------------------------------------
    #: Parsing *string/variable-size* field bytes during upload: per-character copies, UTF-8
    #: handling and object churn make these the dominant parse cost in a JVM-style runtime.
    string_parse_mb_s: float = 10.0
    #: Parsing *numeric/date* field bytes during upload (digit-to-binary conversion).
    numeric_parse_mb_s: float = 40.0
    #: Laying typed values out column-wise into a PAX block.
    pax_build_mb_s: float = 300.0
    #: CRC32C checksum computation.
    checksum_mb_s: float = 400.0
    #: Writing the in-memory sparse index structure (per entry moved).
    index_build_mb_s: float = 400.0
    #: Constant per comparison of the in-memory sort (n log n model), seconds.
    sort_seconds_per_value: float = 3.0e-8

    # ---- query-side, per byte --------------------------------------------------------
    #: Scanning text for record boundaries and splitting attributes (stock Hadoop reader).
    text_scan_mb_s: float = 35.0
    #: Evaluating a simple predicate over already-typed column values.
    predicate_eval_mb_s: float = 900.0
    #: Reconstructing projected tuples from PAX minipages to row form.
    tuple_reconstruction_mb_s: float = 350.0

    # ---- query-side, per record ------------------------------------------------------
    #: Per text row: line object, split(), per-field substrings (stock Hadoop map input).
    text_row_seconds: float = 2.0e-6
    #: Per binary row touched by a full scan of binary/row-layout blocks.
    binary_row_seconds: float = 1.5e-6
    #: Per candidate row post-filtered after an index lookup.
    candidate_row_seconds: float = 4.0e-7
    #: Per qualifying row handed to the map function (tuple/record object creation).
    qualifying_row_seconds: float = 2.0e-6


@dataclass(frozen=True)
class CpuModel:
    """Charges simulated seconds for CPU-bound work on a node."""

    hardware: HardwareProfile
    rates: CpuRates = CpuRates()

    # ------------------------------------------------------------------ helpers
    def _speed(self, cores: int) -> float:
        return self.hardware.core_speed * max(1, min(cores, self.hardware.cores))

    def _per_bytes(self, num_bytes: float, rate_mb_s: float, cores: int = 1) -> float:
        if num_bytes <= 0:
            return 0.0
        return num_bytes / (rate_mb_s * self._speed(cores) * _MB)

    def _per_rows(self, num_rows: float, seconds_per_row: float, cores: int = 1) -> float:
        if num_rows <= 0:
            return 0.0
        return num_rows * seconds_per_row / self._speed(cores)

    # ------------------------------------------------------------------ upload-side work
    def parse_to_binary(self, num_bytes: float, cores: int = 1, string_fraction: float = 0.5) -> float:
        """Parse text records into typed binary values (the HAIL client conversion).

        ``string_fraction`` is the share of the input bytes that belongs to string/variable-size
        fields; these are charged at the (slower) string rate, the remainder at the numeric
        conversion rate.  String-heavy datasets such as UserVisits therefore parse slower per
        byte than the all-integer Synthetic dataset, which is what Table 2 requires.
        """
        string_fraction = min(1.0, max(0.0, string_fraction))
        string_bytes = num_bytes * string_fraction
        numeric_bytes = num_bytes - string_bytes
        return self._per_bytes(string_bytes, self.rates.string_parse_mb_s, cores) + self._per_bytes(
            numeric_bytes, self.rates.numeric_parse_mb_s, cores
        )

    def pax_build(self, num_bytes: float, cores: int = 1) -> float:
        """Lay typed values out column-wise into a PAX block."""
        return self._per_bytes(num_bytes, self.rates.pax_build_mb_s, cores)

    def checksum(self, num_bytes: float, cores: int = 1) -> float:
        """Compute HDFS chunk checksums over ``num_bytes``."""
        return self._per_bytes(num_bytes, self.rates.checksum_mb_s, cores)

    def sort_block(self, num_values: int, value_bytes: float, cores: int = 1) -> float:
        """Sort a block of ``num_values`` records in memory and permute all its columns."""
        if num_values <= 0:
            return 0.0
        speed = self._speed(cores)
        comparisons = num_values * math.log2(max(num_values, 2))
        compare_seconds = comparisons * self.rates.sort_seconds_per_value / speed
        move_seconds = self._per_bytes(value_bytes, self.rates.pax_build_mb_s, cores)
        return compare_seconds + move_seconds

    def build_index(self, num_values: int, entry_bytes: float = 8.0, cores: int = 1) -> float:
        """Build the sparse clustered index over a sorted column."""
        if num_values <= 0:
            return 0.0
        return self._per_bytes(num_values * entry_bytes, self.rates.index_build_mb_s, cores)

    # ------------------------------------------------------------------ query-side work
    def scan_text(self, num_bytes: float, num_rows: float, cores: int = 1) -> float:
        """Stock-Hadoop record reader work: find lines, split attributes, build row objects."""
        return self._per_bytes(num_bytes, self.rates.text_scan_mb_s, cores) + self._per_rows(
            num_rows, self.rates.text_row_seconds, cores
        )

    def scan_binary_rows(self, num_bytes: float, num_rows: float, cores: int = 1) -> float:
        """Full scan over binary rows (Hadoop++ trojan blocks without a usable index)."""
        return self._per_bytes(num_bytes, self.rates.predicate_eval_mb_s, cores) + self._per_rows(
            num_rows, self.rates.binary_row_seconds, cores
        )

    def post_filter(self, num_bytes: float, num_rows: float, cores: int = 1) -> float:
        """Apply the selection predicate to the candidate rows of an index lookup."""
        return self._per_bytes(num_bytes, self.rates.predicate_eval_mb_s, cores) + self._per_rows(
            num_rows, self.rates.candidate_row_seconds, cores
        )

    def reconstruct_tuples(self, num_bytes: float, num_rows: float, cores: int = 1) -> float:
        """Reconstruct the projected attributes of the qualifying rows (PAX to row form)."""
        return self._per_bytes(
            num_bytes, self.rates.tuple_reconstruction_mb_s, cores
        ) + self._per_rows(num_rows, self.rates.qualifying_row_seconds, cores)

    def evaluate_predicate(self, num_bytes: float, cores: int = 1) -> float:
        """Per-byte predicate evaluation (no per-row term); used for coarse charges."""
        return self._per_bytes(num_bytes, self.rates.predicate_eval_mb_s, cores)
