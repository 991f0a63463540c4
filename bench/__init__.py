"""The repository's benchmark: six closed-loop workloads, two clocks, per-layer spans.

See ``bench/README.md`` for the one command, the metric glossary and how to read a trace.
"""
