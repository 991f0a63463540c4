"""Hadoop++ (trojan indexes): the paper's second baseline.

Hadoop++ [12] leaves the HDFS upload untouched and instead runs *additional MapReduce jobs*
after the upload to (i) convert every block to a binary layout and (ii) build one clustered
"trojan" index per logical block.  Consequences reproduced here:

- index creation is very expensive: every post-upload job re-reads the whole dataset, shuffles
  it, and re-writes it with full replication (Figure 4 shows 5–8x the stock upload time);
- the index is *per logical block*, i.e. identical on every replica — only one attribute can
  ever be indexed, so only queries filtering on that attribute benefit (Figure 6);
- the trojan index is considerably larger than HAIL's (the paper measures 304 KB vs 2 KB per
  block), modelled by a much smaller partition size;
- blocks are stored row-wise, so there is no per-column pruning, but highly selective index
  scans read one contiguous row range without PAX tuple reconstruction (Figure 7(b));
- the Hadoop++ input format must read a header from every block during the split phase, which
  delays job start relative to HAIL (Section 6.4.1).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.ledger import TransferLedger
from repro.hail.hail_block import HailBlock
from repro.hail.record_reader import HailRecordReader, projected_row, projected_columns
from repro.hdfs.checksum import checksum_file_size
from repro.hdfs.filesystem import Hdfs
from repro.hdfs.pipeline import StandardUploadPipeline
from repro.layouts.row import TextRowCodec
from repro.mapreduce.input_format import InputFormat
from repro.mapreduce.job import JobConf
from repro.mapreduce.record_reader import RecordReader
from repro.mapreduce.split import InputSplit
from repro.query.schema import Schema
from repro.systems.base import BaseSystem, scan_job

#: Values per trojan-index partition; much denser than HAIL's 1,024, hence the larger index.
TROJAN_PARTITION_SIZE = 8


class TrojanInputFormat(InputFormat):
    """One split per block; reads per-block headers during the split phase."""

    def create_record_reader(
        self, split: InputSplit, hdfs: Hdfs, jobconf: JobConf, cost: CostModel, node_id: int
    ) -> RecordReader:
        # The trojan blocks use the same functional structure as HAIL blocks (sorted data plus a
        # sparse clustered index), so the engine-backed HailRecordReader evaluates them directly;
        # layout differences (row-wise storage, larger index) are carried by the block and its
        # Dir_rep entry, which makes the planner label these blocks TROJAN_INDEX_SCAN.  The
        # split phase bound the job's query (``self.plan``) and planned no block: a reader
        # plans each of its blocks for the node it runs on.
        return HailRecordReader(split, hdfs, cost, node_id, self.plan)

    def split_phase_cost(self, hdfs: Hdfs, jobconf: JobConf, cost: CostModel, num_blocks: int) -> float:
        return cost.split_phase(num_blocks, reads_block_headers=True)


class HadoopPlusPlusSystem(BaseSystem):
    """Hadoop++: stock upload followed by expensive trojan-index creation jobs."""

    name = "Hadoop++"

    def __init__(
        self,
        cluster,
        trojan_attribute: Optional[str] = None,
        cost: Optional[CostModel] = None,
        replication: int = 3,
        partition_size: int = TROJAN_PARTITION_SIZE,
        functional_partition_size: Optional[int] = None,
    ) -> None:
        super().__init__(cluster, cost=cost, replication=replication)
        self.trojan_attribute = trojan_attribute
        self.partition_size = partition_size
        self.functional_partition_size = (
            functional_partition_size if functional_partition_size is not None else partition_size
        )

    # ------------------------------------------------------------------ upload
    def _upload_pipeline(self) -> StandardUploadPipeline:
        return StandardUploadPipeline(self.hdfs, self.cost)

    def num_indexes(self) -> int:
        return 1 if self.trojan_attribute is not None else 0

    def _post_upload(self, path: str, schema: Schema) -> float:
        """Run the trojan-index creation jobs: binary conversion, then per-block indexing.

        Functionally every replica of every block is replaced by a trojan block (binary rows
        sorted by the trojan attribute plus a dense-ish sparse index, identical on all
        replicas).  The simulated cost covers one conversion job and — when an index attribute
        is configured — one indexing job, each of which reads the dataset, shuffles it and
        rewrites it with full replication, plus the MapReduce framework overhead of both jobs.
        """
        ledger = TransferLedger(self.cluster, self.cost)
        block_ids = self.hdfs.namenode.file_blocks(path)
        num_jobs = 2 if self.trojan_attribute is not None else 1

        codec = TextRowCodec(schema)
        for block_id in block_ids:
            hosts = self.hdfs.namenode.block_datanodes(block_id, alive_only=True)
            if not hosts:
                continue
            # The conversion job reads the block's text replica and parses it the way the text
            # pipeline did.  One pivot serves the cost and the replicas.  It is measured before
            # the sort: the string share is sampled over the first rows in upload order.
            lines = self.hdfs.read_replica(block_id, hosts[0]).payload.lines
            records, bad_lines = codec.decode_lenient("\n".join(lines))
            unsorted_block = HailBlock.build(
                schema=schema,
                records=records,
                sort_attribute=None,
                partition_size=self.functional_partition_size,
                bad_lines=bad_lines,
                logical_partition_size=self.partition_size,
            )
            text_bytes = self.hdfs.namenode.logical_block(block_id).text_size_bytes
            binary_bytes = unsorted_block.data_size_bytes()
            string_fraction = unsorted_block.pax.sample_string_share()
            self._charge_index_jobs(
                ledger, hosts, text_bytes, binary_bytes, string_fraction, num_jobs
            )
            self._replace_replicas(block_id, unsorted_block, hosts)

        framework_s = self._framework_overhead(len(block_ids), num_jobs)
        return ledger.makespan() + framework_s

    def _charge_index_jobs(
        self,
        ledger: TransferLedger,
        hosts: list[int],
        text_bytes: int,
        binary_bytes: int,
        string_fraction: float,
        num_jobs: int,
    ) -> None:
        cost = self.cost
        home = hosts[0]
        reducer = hosts[1] if len(hosts) > 1 else home
        home_node = self.cluster.node(home)
        reducer_node = self.cluster.node(reducer)
        scaled_text = cost.scale_bytes(text_bytes)
        scaled_binary = cost.scale_bytes(binary_bytes)
        checksum_bytes = checksum_file_size(binary_bytes)

        # Job 0 parses the text to binary; job 1 reads the binary data back, sorts it by the
        # trojan attribute and builds the index.  Each co-partitions via a shuffle and rewrites
        # everything with replication, with its own spill and merge.
        sort_rows = max(1, int(cost.scale_count(binary_bytes / 64.0)))
        for job in range(num_jobs):
            ledger.record_disk_read(home, binary_bytes if job else text_bytes)
            if not job:
                ledger.record_cpu(home, cost.cpu(home_node).parse_to_binary(
                    scaled_text, cores=home_node.hardware.cores, string_fraction=string_fraction))
            ledger.record_disk_write(home, binary_bytes)          # map output spill
            ledger.record_transfer(home, reducer, binary_bytes)   # shuffle
            # Reduce side: spill, external-merge pass, then the replicated output write.
            ledger.record_disk_write(reducer, binary_bytes)
            ledger.record_disk_read(reducer, 2 * binary_bytes)
            ledger.record_cpu(reducer, cost.cpu(reducer_node).sort_block(sort_rows, scaled_binary))
            if job:
                ledger.record_cpu(reducer, cost.cpu(reducer_node).build_index(sort_rows))
            for position, datanode_id in enumerate(hosts):
                ledger.record_disk_write(datanode_id, binary_bytes + checksum_bytes)
                if position > 0:
                    ledger.record_transfer(reducer, datanode_id, binary_bytes)

    def _framework_overhead(self, num_blocks: int, num_jobs: int) -> float:
        total_slots = max(
            1, len(self.cluster.alive_nodes) * self.cost.params.map_slots_per_node
        )
        waves = -(-num_blocks // total_slots) if num_blocks else 0
        per_job = self.cost.job_startup() + waves * self.cost.task_overhead()
        return num_jobs * per_job

    def _replace_replicas(self, block_id: int, unsorted_block: HailBlock, hosts: list[int]) -> None:
        trojan_block = unsorted_block.resorted(self.trojan_attribute)
        trojan_block.pax_layout = False
        for datanode_id in hosts:
            # No zone synopsis for trojan blocks: Hadoop++ has none to skip or rank by.
            info = trojan_block.replica_info(datanode_id, index_type="trojan", zone_ranges=None)
            self.hdfs.install_replica(block_id, datanode_id, trojan_block, info)

    # ------------------------------------------------------------------ queries
    def _make_jobconf(self, query, path: str, schema: Schema, emit) -> JobConf:
        return scan_job(
            f"hadoop++-{query.name}", path, TrojanInputFormat(),
            projected_columns, projected_row, emit,
        )
