"""The HDFS client: uploads whole files block by block through an upload pipeline.

The client is generic over the pipeline implementation: stock Hadoop uses
:class:`~repro.hdfs.pipeline.StandardUploadPipeline`; HAIL plugs in its own pipeline
(:class:`repro.hail.upload.HailUploadPipeline`) which produces differently sorted and indexed
replicas while reusing the same namenode/datanode interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

from repro.cluster.costmodel import CostModel
from repro.cluster.ledger import TransferLedger
from repro.hdfs.filesystem import DataFile, Hdfs


class UploadPipeline(Protocol):
    """Anything that can upload one block of rows and register its replicas."""

    def upload_block(
        self,
        path: str,
        records: Sequence[tuple],
        schema,
        client_node: int,
        ledger: TransferLedger,
        raw_lines: Optional[Sequence[str]] = None,
        replication: Optional[int] = None,
    ):  # pragma: no cover - protocol definition
        ...


@dataclass
class UploadReport:
    """Summary of one file upload."""

    path: str
    num_blocks: int
    num_records: int
    source_text_bytes: int
    stored_bytes: int
    replication: int
    duration_s: Optional[float] = None
    block_results: list = field(default_factory=list)

    @property
    def blowup(self) -> float:
        """Stored bytes divided by source bytes (disk-space cost of replication + indexing)."""
        if self.source_text_bytes == 0:
            return 0.0
        return self.stored_bytes / self.source_text_bytes


class HdfsClient:
    """Uploads a :class:`~repro.hdfs.filesystem.DataFile` from one client node."""

    def __init__(
        self,
        hdfs: Hdfs,
        cost: CostModel,
        pipeline: UploadPipeline,
        client_node: int = 0,
    ) -> None:
        self.hdfs = hdfs
        self.cost = cost
        self.pipeline = pipeline
        self.client_node = client_node

    def upload(
        self,
        datafile: DataFile,
        rows_per_block: int,
        ledger: Optional[TransferLedger] = None,
        replication: Optional[int] = None,
        create_file: bool = True,
    ) -> UploadReport:
        """Upload ``datafile``, cutting it into blocks of ``rows_per_block`` rows.

        When ``ledger`` is ``None`` a private ledger is used and the report carries the upload
        duration; when an external ledger is passed (multi-client uploads, where every node
        uploads its share concurrently) the caller computes the cluster-wide makespan itself and
        ``duration_s`` stays ``None``.
        """
        own_ledger = ledger is None
        if ledger is None:
            ledger = TransferLedger(self.hdfs.cluster, self.cost)
        if create_file and not self.hdfs.namenode.file_exists(datafile.path):
            self.hdfs.namenode.create_file(datafile.path)

        block_results = []
        stored_bytes_before = self.hdfs.total_stored_bytes()
        source_bytes = 0
        if datafile.raw_lines is not None:
            # Raw upload: the source is unparsed text; pipelines that parse at upload time (HAIL)
            # separate the rows that fail schema validation as bad records.
            for block_lines in datafile.partition_lines(rows_per_block):
                result = self.pipeline.upload_block(
                    path=datafile.path,
                    records=[],
                    schema=datafile.schema,
                    client_node=self.client_node,
                    ledger=ledger,
                    raw_lines=block_lines,
                    replication=replication,
                )
                block_results.append(result)
                source_bytes += sum(len(line.encode("utf-8")) + 1 for line in block_lines)
        else:
            for block_records in datafile.partition_records(rows_per_block):
                result = self.pipeline.upload_block(
                    path=datafile.path,
                    records=block_records,
                    schema=datafile.schema,
                    client_node=self.client_node,
                    ledger=ledger,
                    replication=replication,
                )
                block_results.append(result)
                # The pipeline measured the block's text when it registered it; no second pass.
                source_bytes += self.hdfs.namenode.logical_block(result.block_id).text_size_bytes

        stored_bytes = self.hdfs.total_stored_bytes() - stored_bytes_before
        effective_replication = (
            replication if replication is not None else self.hdfs.namenode.replication
        )
        report = UploadReport(
            path=datafile.path,
            num_blocks=len(block_results),
            num_records=datafile.num_records,
            source_text_bytes=source_bytes,
            stored_bytes=stored_bytes,
            replication=effective_replication,
            block_results=block_results,
        )
        if own_ledger:
            report.duration_s = ledger.makespan()
        return report
