"""The HAIL upload pipeline (Figure 1 and Section 3.2 of the paper).

Differences to the stock HDFS pipeline, all reproduced here:

1. the HAIL client parses each block's rows against the user schema, separates bad records, and
   converts the block to binary PAX *before* cutting it into packets (steps 1–4 in Figure 1) —
   once per block: its text and binary sizes are read off that one PAX block by the column,
   and every datanode below reorders the block it received instead of pivoting the rows again;
2. datanodes do **not** flush packets as they arrive; they forward them immediately, reassemble
   the block in main memory, sort it by their replica's sort attribute, build the clustered
   index, recompute the chunk checksums (each replica has different bytes now) and only then
   flush data + checksums to disk (steps 6–9);
3. the ACK semantics change from "received, validated and flushed" to "received and validated",
   with the final ACK of a block only sent after sorting/indexing/flushing completed;
4. every datanode registers its replica with the namenode including the new
   ``HAILBlockReplicaInfo`` (sort order, index, sizes) so that ``Dir_rep`` can steer scheduling.

Because the stock pipeline is I/O bound, the extra CPU work (parse, sort, index, checksum) is
hidden behind the disk/network time on reasonably provisioned nodes — the ledger model makes
this explicit by taking ``max(io, cpu)`` per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.costmodel import CostModel
from repro.cluster.ledger import TransferLedger
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.hdfs.block import LogicalBlock
from repro.hdfs.checksum import checksum_file_size
from repro.hdfs.chunk import num_packets
from repro.hdfs.errors import UploadFailedError
from repro.hdfs.filesystem import Hdfs
from repro.layouts.row import TextRowCodec
from repro.query.schema import Schema


@dataclass
class HailBlockUploadResult:
    """Outcome of uploading one block through the HAIL pipeline."""

    block_id: int
    pipeline: tuple[int, ...]
    text_bytes: int
    pax_bytes: int
    num_packets: int
    num_bad_records: int
    indexes_created: tuple[str, ...]

    @property
    def replication(self) -> int:
        """Number of replicas written."""
        return len(self.pipeline)


class HailUploadPipeline:
    """Uploads blocks the HAIL way: per-replica sort orders and clustered indexes."""

    def __init__(self, hdfs: Hdfs, cost: CostModel, config: HailConfig) -> None:
        self.hdfs = hdfs
        self.cost = cost
        self.config = config

    # ------------------------------------------------------------------ block upload
    def upload_block(
        self,
        path: str,
        records: Sequence[tuple],
        schema: Schema,
        client_node: int,
        ledger: TransferLedger,
        raw_lines: Optional[Sequence[str]] = None,
    ) -> HailBlockUploadResult:
        """Upload one block: client-side PAX conversion, per-datanode sort + index + flush."""
        # 1. The HAIL client parses rows against the schema, separates bad records and converts
        #    the block to binary PAX — once; everything below measures or reorders this block.
        if raw_lines is not None:
            codec = TextRowCodec(schema)
            parsed, bad_lines = codec.decode_lenient("\n".join(raw_lines))
            records = parsed
        else:
            records = list(records)
            bad_lines = []
        client_block = HailBlock.build(
            schema=schema,
            records=records,
            sort_attribute=None,
            partition_size=self.config.effective_functional_partition_size,
            bad_lines=bad_lines,
            logical_partition_size=self.config.partition_size,
        )
        client_block.pax_layout = self.config.convert_to_pax
        # One text pass, in upload order: the string share is sampled over the first rows as
        # they arrived.
        text_bytes, string_fraction = client_block.pax.text_size_and_string_share()
        text_bytes += client_block.bad_records_size_bytes()
        pax_bytes = client_block.data_size_bytes()

        logical = LogicalBlock(
            block_id=-1,
            path=path,
            num_records=len(records),
            schema=schema,
            bad_lines=list(bad_lines),
            text_size_bytes=text_bytes,
        )
        block_id, pipeline = self.hdfs.namenode.allocate_block(
            path, logical, client_node=client_node
        )
        if not pipeline:
            raise UploadFailedError("namenode returned an empty pipeline")

        # 2. Client-side costs: read source text, parse to binary, build PAX, checksum, send.
        self._charge_client(client_node, text_bytes, pax_bytes, string_fraction, ledger)

        # 3. Network hops and per-datanode sort/index/flush: each datanode reorders the block it
        #    received by its own attribute (an unsorted position keeps the client's minipages).
        #    Each datanode is charged for its own checksum pass; the functional chunk CRCs are
        #    computed only where the journal writes a payload (``repro.persist.state``).
        indexes_created: list[str] = []
        wire_bytes = pax_bytes + checksum_file_size(pax_bytes)
        # Steps 3 and 4 are one journaled mutation: the block is synced once, fully registered
        # (all replicas + Dir_rep infos), so a crash loses it wholesale, never partially.
        with self.hdfs.mutating(block_id, "mid_upload"):
            previous = client_node
            for position, datanode_id in enumerate(pipeline):
                ledger.record_transfer(previous, datanode_id, wire_bytes)
                sort_attribute = self.config.attribute_for_replica(position)
                block = client_block.resorted(sort_attribute)
                self._charge_datanode(datanode_id, block, pax_bytes, ledger)
                self.hdfs.install_replica(
                    block_id, datanode_id, block, block.replica_info(datanode_id)
                )
                if sort_attribute is not None:
                    indexes_created.append(sort_attribute)
                previous = datanode_id

            # 4. ACK chain: one round trip per stage; the last ACK waits for the flush (charged
            #    above).
            ledger.record_fixed(client_node, self.cost.network.round_trip() * len(pipeline))
            ledger.record_fixed(client_node, self.cost.block_setup())

        return HailBlockUploadResult(
            block_id=block_id,
            pipeline=tuple(pipeline),
            text_bytes=text_bytes,
            pax_bytes=pax_bytes,
            num_packets=num_packets(pax_bytes),
            num_bad_records=len(bad_lines),
            indexes_created=tuple(indexes_created),
        )

    # ------------------------------------------------------------------ internals
    def _charge_client(
        self,
        client_node: int,
        text_bytes: int,
        pax_bytes: int,
        string_fraction: float,
        ledger: TransferLedger,
    ) -> None:
        cost = self.cost
        node = self.hdfs.cluster.node(client_node)
        cpu = cost.cpu(node)
        # A datanode/client processes many blocks concurrently during an upload, so the parse,
        # sort and checksum work spreads over all cores of the node.
        cores = node.hardware.cores
        scaled_text = cost.scale_bytes(text_bytes)
        scaled_pax = cost.scale_bytes(pax_bytes)
        ledger.record_disk_read(client_node, text_bytes)
        client_cpu = (
            cpu.parse_to_binary(scaled_text, cores=cores, string_fraction=string_fraction)
            + cpu.pax_build(scaled_pax, cores=cores)
            + cpu.checksum(scaled_pax, cores=cores)
        )
        ledger.record_cpu(client_node, client_cpu)

    def _charge_datanode(
        self, datanode_id: int, block: HailBlock, pax_bytes: int, ledger: TransferLedger
    ) -> None:
        cost = self.cost
        node = self.hdfs.cluster.node(datanode_id)
        cpu = cost.cpu(node)
        cores = node.hardware.cores
        scaled_pax = cost.scale_bytes(pax_bytes)
        cpu_seconds = 0.0
        if block.sort_attribute is not None:
            logical_values = int(cost.scale_count(block.num_records))
            cpu_seconds += cpu.sort_block(logical_values, scaled_pax, cores=cores)
            cpu_seconds += cpu.build_index(logical_values, cores=cores)
        # Each replica has different bytes after sorting, so each datanode recomputes checksums.
        cpu_seconds += cpu.checksum(scaled_pax, cores=cores)
        ledger.record_cpu(datanode_id, cpu_seconds)
        replica_bytes = block.size_bytes()
        ledger.record_disk_write(datanode_id, replica_bytes + checksum_file_size(replica_bytes))
