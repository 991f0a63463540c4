"""The rows a deployment holds, read from its replicas.

The namenode keeps only metadata (a block's row count, not its rows), so a test that checks
what a HAIL deployment stores reads the replicas themselves.  After a restore every replica
was checked against the chunk CRCs its journal holds before it was installed.
"""

from __future__ import annotations


def replica_rows(hdfs, path: str) -> list[tuple]:
    """Every row of ``path``, block by block, from each block's first ``Dir_block`` replica."""
    namenode = hdfs.namenode
    rows: list[tuple] = []
    for block_id in namenode.file_blocks(path):
        host = namenode.block_datanodes(block_id, alive_only=False)[0]
        rows.extend(hdfs.read_replica(block_id, host).payload.pax.records())
    return rows
