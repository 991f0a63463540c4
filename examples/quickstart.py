"""Quickstart: the declarative client API — Session, Dataset, and the expression DSL.

This is the smallest end-to-end use of the public API:

1. deploy a session owning two systems (HAIL and stock Hadoop) on simulated 4-node clusters,
2. upload a UserVisits-style log once through the session (indexes are built during upload),
3. build the query declaratively — ``col(...)`` expressions, ``where``/``select`` — and let
   the normalizer compile it to an engine plan (no hand-ordered predicate clauses),
4. ``explain()`` the chosen access paths, ``collect()`` on both systems, and run a small
   batch to show the per-session statistics.

Run with ``python examples/quickstart.py``.
"""

from datetime import date

from repro import Session, col
from repro.datagen import UserVisitsGenerator

ROWS_PER_BLOCK = 250


def main() -> None:
    # A UserVisits-style web log; the probe IP keeps Bob's needle queries non-empty.
    generator = UserVisitsGenerator(seed=42, probe_ip_rate=1 / 500)
    rows = generator.generate(4000)
    schema = generator.schema

    # Scale the cost model so every functional block of 250 rows stands in for a 64 MB HDFS
    # block: simulated times then resemble the paper's cluster-scale numbers.
    block_bytes = sum(schema.text_size(r) for r in rows[:ROWS_PER_BLOCK])
    data_scale = 64 * 1024 * 1024 / block_bytes

    # One session, two systems (each on its own fresh 4-node cluster): HAIL with one clustered
    # index per replica — Bob's configuration from the paper — and stock Hadoop to compare.
    session = Session.deploy(
        nodes=4,
        systems=("HAIL", "Hadoop"),
        index_attributes=["visitDate", "sourceIP", "adRevenue"],
        data_scale=data_scale,
    )

    print("Uploading the web log into both systems...")
    visits = session.upload("/logs/uservisits", rows, schema, rows_per_block=ROWS_PER_BLOCK)
    hail_upload = session.upload_reports["/logs/uservisits"]["HAIL"]
    hadoop_upload = session.upload_reports["/logs/uservisits"]["Hadoop"]
    print(f"  Hadoop upload : {hadoop_upload.total_s:8.1f} simulated seconds")
    print(f"  HAIL upload   : {hail_upload.total_s:8.1f} simulated seconds "
          f"({hail_upload.num_indexes} clustered indexes per block, for free)")
    print(f"  replica index distribution: "
          f"{session.system('HAIL').replica_distribution('/logs/uservisits')}")

    # Bob's first query, written declaratively.  The DSL compiles to the same engine plan as
    # a hand-built Query: clause order, description and plan come from the normalizer.
    january_visitors = (
        visits.where(col("visitDate").between(date(1999, 1, 1), date(2000, 1, 1)))
        .select("sourceIP")
        .named("Bob-Q1")
    )
    print(f"\nRunning {january_visitors.to_query()}")
    print("Plan on HAIL (access path and chosen replica per block):")
    print("  " + january_visitors.explain(system="HAIL").replace("\n", "\n  "))

    hail_result = january_visitors.collect(system="HAIL")
    hadoop_result = january_visitors.collect(system="Hadoop")

    assert sorted(hail_result.records) == sorted(hadoop_result.records)
    print(f"  both systems return {len(hail_result.records)} records (results verified equal)")
    print(f"  Hadoop : {hadoop_result.runtime_s:8.1f} s end-to-end, "
          f"{hadoop_result.record_reader_s * 1000:8.1f} ms per RecordReader")
    print(f"  HAIL   : {hail_result.runtime_s:8.1f} s end-to-end, "
          f"{hail_result.record_reader_s * 1000:8.1f} ms per RecordReader "
          f"({hail_result.job.num_map_tasks} map tasks thanks to HailSplitting)")
    speedup = hadoop_result.runtime_s / hail_result.runtime_s
    print(f"  => HAIL answers Bob {speedup:.1f}x faster")

    # Deferred execution: submit a small workload, drain it as one batch, inspect the stats.
    probe = "172.101.11.46"
    january_visitors.submit(system="HAIL")
    visits.where(col("sourceIP") == probe).select("searchWord", "adRevenue").named(
        "Bob-Q2"
    ).submit(system="HAIL")
    batch = session.run_batch()
    stats = session.stats(system="HAIL")
    print(f"\nBatch of {len(batch)} deferred queries: {batch.total_runtime_s:.1f} s total; "
          f"session ran {stats.queries_run} HAIL queries overall")


if __name__ == "__main__":
    main()
