"""The test-only surface of ``src/repro`` is exactly the keep list below.

``tools/census.py`` lists the definitions no program file references.  Each one stays only for
a reason its docstring gives; anything else the census finds is code only tests reach, to be
deleted with its tests moved onto the real path, not added here.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Why each stays is in its docstring: user API, the paper's design (Sections 3.5 and 4.1),
#: ground truth tests compare against, the bad-line generator, a future caller, or a
#: ``bench/trace.py`` span target.
KEEP = [
    "repro.api.session.Dataset.with_selectivity",
    "repro.api.session.Session.system_names",
    "repro.api.session.SessionStats.counter_by_attribute",
    "repro.datagen.weblog.WebLogGenerator",
    "repro.engine.kernels.set_backend",
    "repro.engine.kernels.use_backend",
    "repro.engine.operators.aggregate._initial_partial",
    "repro.hail.annotation.hail_query",
    "repro.hail.hail_block.HailBlock.variable_offsets",
    "repro.hail.index.multilevel_pays_off",
    "repro.hail.record.HailRecord.get_by_name",
    "repro.hail.record.HailRecord.get_date",
    "repro.hail.record.HailRecord.get_float",
    "repro.hail.record.HailRecord.get_int",
    "repro.hail.record.HailRecord.get_string",
    "repro.hdfs.checksum.verify_chunk_checksums",
    "repro.hdfs.errors.ChecksumError",
    "repro.hdfs.filesystem.Hdfs.file_records",
    "repro.layouts.pax.PaxBlock.column_size_bytes",
    "repro.layouts.pax.PaxBlock.projected_size_bytes",
    "repro.layouts.pax.PaxBlock.variable_offsets",
    "repro.layouts.schema.Field.binary_size",
    "repro.layouts.schema.Field.format",
    "repro.layouts.schema.Schema.binary_size",
    "repro.layouts.schema.Schema.string_byte_fraction",
    "repro.layouts.zonemap.may_match_ranges",
    "repro.persist.state.checkpoint_state",
]


def _census_module():
    spec = importlib.util.spec_from_file_location("census", REPO_ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("census", module)
    spec.loader.exec_module(module)
    return module


census = _census_module()


def test_the_test_only_surface_is_the_keep_list():
    assert census.census() == KEEP


def test_every_kept_definition_says_why_in_its_docstring():
    for qualname in KEEP:
        parts = qualname.split(".")
        split = next(
            i for i in range(len(parts), 0, -1)
            if (REPO_ROOT / "src" / Path(*parts[:i])).with_suffix(".py").exists()
        )
        node = ast.parse((REPO_ROOT / "src" / Path(*parts[:split])).with_suffix(".py").read_text())
        for name in parts[split:]:
            node = next(
                child for child in node.body
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name
            )
        assert "Census keep list (``tests/test_census.py``)" in ast.get_docstring(node), qualname


def test_re_exports_docstrings_and_dead_callers_are_not_uses(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Mentions reassemble."""\nfrom repro.chunk import Packet, packetize\n'
        '__all__ = ["Packet", "packetize", "reassemble"]\n'
    )
    (package / "chunk.py").write_text(
        "class Packet:\n"
        "    def wire_size(self):\n        return 1\n\n"
        "def packetize(payload):\n    return [Packet()]\n\n"
        "def reassemble(packets):\n    return reassemble(packets[1:])\n\n"
        "def num_packets(size):\n    return size\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text("from repro.chunk import num_packets\n")
    assert census.census(tmp_path) == [
        "repro.chunk.Packet", "repro.chunk.packetize", "repro.chunk.reassemble",
    ]
