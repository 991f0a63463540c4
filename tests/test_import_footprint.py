"""numpy and sqlite3 load at first use, not with ``import repro``.

numpy is imported at the first numpy kernel dispatch (a window of at least
``kernels._NUMPY_MIN_ROWS`` rows) and sqlite3 when the first journal opens, so a process that
never needs them does not carry them (about 13.5 MB of resident memory between the two).
Which modules a process loaded is a property of the whole interpreter, so every case runs in
a fresh one and reports ``sys.modules`` back as JSON.  ``tests/test_layering.py`` holds the
static half of the rule (no module-level import of either); this file checks what running
shows, and its numpy case needs numpy installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from importlib.util import find_spec
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_needs_numpy = pytest.mark.skipif(find_spec("numpy") is None, reason="numpy not installed")

#: What every case starts from: a report of the two modules and 800 UserVisits rows.
_PRELUDE = """
import json, sys
from repro import Session, col
from repro.datagen import UserVisitsGenerator
from repro.engine import kernels

def loaded():
    return {name: name in sys.modules for name in ("numpy", "sqlite3")}

rows = UserVisitsGenerator(seed=9, probe_ip_rate=1 / 50).generate(800)
schema = UserVisitsGenerator(seed=9).schema
"""


def _run(body: str, tmp_path: Path, pythonpath: tuple = ()) -> dict:
    """Run ``body`` after :data:`_PRELUDE` in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, pythonpath), str(SRC)])
    script = _PRELUDE + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_repro_loads_neither(tmp_path):
    report = _run("print(json.dumps(loaded()))", tmp_path)
    assert report == {"numpy": False, "sqlite3": False}


def test_an_unjournaled_session_on_narrow_blocks_loads_neither(tmp_path):
    report = _run(
        """
        session = Session.deploy(
            systems=("HAIL", "Hadoop"), index_attributes=["visitDate", "sourceIP", "adRevenue"]
        )
        visits = session.upload("/uv", rows, schema, rows_per_block=100)
        everything = visits.collect()
        probe = visits.where(col("adRevenue") < 100.0).select("sourceIP").collect()
        print(json.dumps({
            **loaded(),
            "rows": len(everything.records),
            "probe_rows": len(probe.records),
            "full_scans": everything.plan.summary()["full_scans"],
            "index_scans": probe.plan.summary()["index_scans"],
        }))
        """,
        tmp_path,
    )
    assert not report["numpy"] and not report["sqlite3"]
    assert report["rows"] == 800 and 0 < report["probe_rows"] < 800
    assert report["full_scans"] == report["index_scans"] == 8  # 100 + 100 rows per node


#: A filter no index serves, over blocks of 400 and 100 rows (500 rows per node).
_WIDE_FILTER = """
started_on = kernels.active_backend()
session = Session.deploy(systems=("HAIL",))
rows = UserVisitsGenerator(seed=9).generate(2000)
visits = session.upload("/uv", rows, schema, rows_per_block=400)
assert loaded() == {"numpy": False, "sqlite3": False}
wide = visits.where((col("adRevenue") < 100.0) & (col("duration") > 20)).select("sourceIP")
with kernels.use_backend("numpy"):  # a numpy that fails to import must not fail the exit
    first = sorted(wide.collect().records)
with kernels.use_backend("python"):
    python = sorted(wide.collect().records)
print(json.dumps({
    **loaded(),
    "started_on": started_on,
    "backend": kernels.active_backend(),
    "have_numpy": kernels.HAVE_NUMPY,
    "rows": len(first),
    "agree": first == python,
}))
"""


@_needs_numpy
def test_a_wide_window_filter_loads_numpy_and_agrees_with_python(tmp_path):
    report = _run(_WIDE_FILTER, tmp_path)
    assert report["numpy"] and not report["sqlite3"]
    assert report["started_on"] == report["backend"] == "numpy" and report["have_numpy"]
    assert report["rows"] > 0 and report["agree"]


def test_a_numpy_that_fails_to_import_falls_back_to_python(tmp_path):
    stub = tmp_path / "stub" / "numpy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("numpy stub that fails to import")\n')
    report = _run(_WIDE_FILTER, tmp_path, pythonpath=(tmp_path / "stub",))
    assert report["started_on"] == "numpy"  # the stub is found; it fails only when imported
    assert report["backend"] == "python" and not report["have_numpy"]
    assert report["rows"] > 0 and report["agree"]
    assert not report["sqlite3"]


def test_a_journaled_deployment_loads_sqlite3(tmp_path):
    report = _run(
        f"""
        from repro.hail.config import HailConfig
        before = loaded()
        config = HailConfig.for_attributes(("visitDate",)).with_persistence(
            "sqlite", directory={str(tmp_path / "journal")!r}
        )
        session = Session.deploy(hail_config=config)
        session.upload("/uv", rows, schema, rows_per_block=100)
        session.system().hdfs.persist.close()
        print(json.dumps({{"before": before, "after": loaded()}}))
        """,
        tmp_path,
    )
    assert report["before"] == {"numpy": False, "sqlite3": False}
    assert report["after"]["sqlite3"]
