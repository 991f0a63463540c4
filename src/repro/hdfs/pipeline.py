"""The stock HDFS upload pipeline (Section 3.2 of the paper, "In HDFS, ...").

For every block the client obtains a pipeline of datanodes from the namenode, cuts the block
into packets (chunks plus checksums) and streams them to DN1, which forwards to DN2, which
forwards to DN3.  Every datanode flushes chunk data and checksums to two local files as packets
arrive; only the last datanode verifies checksums, and ACKs travel back along the chain.

Costs are charged to a :class:`~repro.cluster.ledger.TransferLedger`:

- the client reads the source data from its local disk and pushes it onto the network,
- every datanode in the chain receives the bytes, writes data + checksum files, and forwards,
- checksum computation (client) and verification (last datanode) are CPU work,
- a per-block fixed setup cost covers the namenode round trip and pipeline establishment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.costmodel import CostModel
from repro.cluster.ledger import TransferLedger
from repro.hdfs.block import LogicalBlock, TextBlockPayload
from repro.hdfs.checksum import checksum_file_size, chunk_checksums
from repro.hdfs.chunk import num_packets
from repro.hdfs.errors import UploadFailedError
from repro.hdfs.filesystem import Hdfs


@dataclass
class BlockUploadResult:
    """Outcome of uploading one block through the pipeline."""

    block_id: int
    pipeline: tuple[int, ...]
    payload_bytes: int
    num_packets: int
    checksums_verified: bool

    @property
    def replication(self) -> int:
        """Number of replicas written."""
        return len(self.pipeline)


class StandardUploadPipeline:
    """Uploads blocks the way stock HDFS does: byte-identical text replicas."""

    def __init__(self, hdfs: Hdfs, cost: CostModel, verify_checksums: bool = True) -> None:
        self.hdfs = hdfs
        self.cost = cost
        self.verify_checksums = verify_checksums

    def upload_block(
        self,
        path: str,
        records: Sequence[tuple],
        schema,
        client_node: int,
        ledger: TransferLedger,
        raw_lines: Optional[Sequence[str]] = None,
        replication: Optional[int] = None,
    ) -> BlockUploadResult:
        """Upload one block (a group of rows) and register its replicas with the namenode."""
        records = list(records)
        bad_lines: list[str] = []
        if raw_lines is not None:
            lines = tuple(raw_lines)
            if not records:
                # Stock HDFS stores the text verbatim; the logical-block record list (used as
                # ground truth by tests and reports) is the best-effort parse of those lines.
                from repro.layouts.row import TextRowCodec

                records, bad_lines = TextRowCodec(schema).decode_lenient("\n".join(lines))
        else:
            lines = tuple(map(schema.format_record, records))
        payload = TextBlockPayload(lines, schema=schema)
        payload_size = payload.size_bytes()

        logical = LogicalBlock(
            block_id=-1,
            path=path,
            records=records,
            schema=schema,
            bad_lines=bad_lines,
            text_size_bytes=payload_size,
        )
        block_id, pipeline = self.hdfs.namenode.allocate_block(
            path, logical, client_node=client_node, replication=replication
        )
        if not pipeline:
            raise UploadFailedError("namenode returned an empty pipeline")

        checksums: tuple[int, ...] = ()
        verified = False
        if self.verify_checksums:
            payload_bytes = payload.to_bytes()
            checksums = tuple(chunk_checksums(payload_bytes))
            verified = True

        self._charge_costs(payload_size, client_node, pipeline, ledger)

        for datanode_id in pipeline:
            self.hdfs.install_replica(block_id, datanode_id, payload, checksums=checksums)

        return BlockUploadResult(
            block_id=block_id,
            pipeline=tuple(pipeline),
            payload_bytes=payload_size,
            num_packets=num_packets(payload_size),
            checksums_verified=verified,
        )

    # ------------------------------------------------------------------ cost accounting
    def _charge_costs(
        self,
        payload_size: int,
        client_node: int,
        pipeline: Sequence[int],
        ledger: TransferLedger,
    ) -> None:
        cluster = self.hdfs.cluster
        cost = self.cost
        checksum_bytes = checksum_file_size(payload_size)
        wire_size = payload_size + checksum_bytes

        # Client: read the source file from local disk, checksum it, push it onto the network.
        ledger.record_disk_read(client_node, payload_size)
        client_cpu = cost.cpu(cluster.node(client_node)).checksum(cost.scale_bytes(payload_size))
        ledger.record_cpu(client_node, client_cpu)
        ledger.record_fixed(client_node, cost.block_setup())

        previous = client_node
        for position, datanode_id in enumerate(pipeline):
            node = cluster.node(datanode_id)
            # Receive from the previous hop in the chain (free if it is the same machine).
            ledger.record_transfer(previous, datanode_id, wire_size)
            # Flush chunk data and the checksum file to local disk as packets arrive.
            ledger.record_disk_write(datanode_id, payload_size + checksum_bytes)
            if position == len(pipeline) - 1:
                # Only the last datanode of the chain verifies the checksums.
                verify_cpu = cost.cpu(node).checksum(cost.scale_bytes(payload_size))
                ledger.record_cpu(datanode_id, verify_cpu)
            previous = datanode_id

        # The ACK chain adds one round trip per pipeline stage for the final packet.
        ledger.record_fixed(client_node, cost.network.round_trip() * len(pipeline))
