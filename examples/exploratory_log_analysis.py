"""Bob's exploratory log analysis session (the use case that motivates the paper).

Bob does not know up front which attribute he will filter on next: he starts with a date range,
notices a suspicious source IP, drills down on it, and finally looks at an ad-revenue band.
Because HAIL keeps a *different* clustered index on every replica (visitDate, sourceIP,
adRevenue), every one of these ad-hoc filters hits an index — something a single-index system
like Hadoop++ cannot offer.  The log also contains malformed rows, which HAIL separates as bad
records during upload and hands back to the job flagged as bad.

Run with ``python examples/exploratory_log_analysis.py``.
"""

from datetime import date

from repro.baselines import HadoopPlusPlusSystem
from repro.cluster import Cluster
from repro.datagen import UserVisitsGenerator
from repro.hail.system import HailSystem
from repro.query.predicate import Predicate, Query


def _session_queries() -> list[Query]:
    probe_ip = "172.101.11.46"
    return [
        Query(
            name="step-1-date-range",
            predicate=Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1)),
            projection=("sourceIP", "visitDate"),
            description="all source IPs that visited during 1999",
        ),
        Query(
            name="step-2-suspicious-ip",
            predicate=Predicate.equals("sourceIP", probe_ip),
            projection=("visitDate", "destURL", "adRevenue"),
            description=f"every request from the suspicious IP {probe_ip}",
        ),
        Query(
            name="step-3-revenue-band",
            predicate=Predicate.between("adRevenue", 1.0, 10.0),
            projection=("sourceIP", "adRevenue"),
            description="requests with adRevenue between 1 and 10",
        ),
    ]


def main() -> None:
    generator = UserVisitsGenerator(seed=7, probe_ip_rate=1 / 400)
    rows = generator.generate(6000)
    schema = generator.schema
    # Append a few malformed log lines to exercise bad-record handling.
    raw_lines = [schema.format_record(r) for r in rows]
    raw_lines.insert(100, "corrupted ###")
    raw_lines.insert(2500, "1.2.3.4|missing|fields")

    hail = HailSystem(
        Cluster.homogeneous(4), index_attributes=["visitDate", "sourceIP", "adRevenue"]
    )
    hadoopplusplus = HadoopPlusPlusSystem(Cluster.homogeneous(4), trojan_attribute="sourceIP")

    hail.upload("/logs/web", rows, schema, rows_per_block=300, raw_lines=raw_lines)
    hadoopplusplus.upload("/logs/web", rows, schema, rows_per_block=300)

    print("Bob's exploratory session (three ad-hoc filters on three different attributes):\n")
    hail_total = 0.0
    hpp_total = 0.0
    for query in _session_queries():
        hail_result = hail.run_query(query, "/logs/web")
        hpp_result = hadoopplusplus.run_query(query, "/logs/web")
        hail_total += hail_result.runtime_s
        hpp_total += hpp_result.runtime_s
        scans = hail_result.job.counters.value("INDEX_SCANS")
        print(f"{query.name:22s} ({query.description})")
        print(f"   matching records : {len(hail_result.records)}")
        print(f"   HAIL             : {hail_result.runtime_s:7.1f} s "
              f"(index scans on {int(scans)} tasks)")
        print(f"   Hadoop++         : {hpp_result.runtime_s:7.1f} s "
              f"(index only helps when filtering on sourceIP)\n")

    print(f"whole session: HAIL {hail_total:.1f} s vs Hadoop++ {hpp_total:.1f} s "
          f"({hpp_total / hail_total:.1f}x)")


if __name__ == "__main__":
    main()
