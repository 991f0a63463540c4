"""HAIL — Hadoop Aggressive Indexing Library (the paper's contribution).

HAIL changes the HDFS upload pipeline so that each physical replica of a block is stored in a
different sort order with a different clustered index (created in main memory while the block is
uploaded), extends the namenode with a per-replica directory, and changes the MapReduce pipeline
(input format, splitting policy, record reader, scheduling) to route map tasks to the replica
whose index matches the job's filter predicate.

Public entry point: :class:`repro.hail.system.HailSystem`, configured by
:class:`repro.hail.config.HailConfig`.  The ``@HailQuery`` annotation and the predicates it
carries live in :mod:`repro.query`.
"""
