"""Tests for the experiment configuration, report tables and deployment builder."""

import ast
from pathlib import Path

import pytest

import repro
import repro.experiments
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.experiments import DatasetSpec, ExperimentConfig, FigureResult, build_deployment
from repro.hail import HailSystem


# --------------------------------------------------------------------------- config
def test_config_derived_quantities():
    config = ExperimentConfig(nodes=4, blocks_per_node=8, rows_per_block=100)
    assert config.num_blocks == 32
    assert config.num_records == 3200
    assert config.with_(nodes=10).nodes == 10
    assert config.hardware_profile().name == "physical"
    assert len(config.cluster()) == 4
    assert len(config.cluster(nodes=7, hardware="m1.large")) == 7


def test_config_data_scale_targets_logical_block_size():
    config = ExperimentConfig(rows_per_block=100, logical_block_mb=64)
    rows = UserVisitsGenerator(seed=1).generate(100)
    scale = config.data_scale(USERVISITS_SCHEMA, rows)
    block_bytes = sum(USERVISITS_SCHEMA.text_size(r) for r in rows)
    assert scale * block_bytes == pytest.approx(64 * 1024 * 1024)
    assert config.data_scale(USERVISITS_SCHEMA, []) == 1.0
    cost = config.cost_model(scale)
    assert cost.params.data_scale == pytest.approx(scale)


def test_experiment_presets():
    assert ExperimentConfig.small().nodes == 4
    assert ExperimentConfig.medium().nodes == 10


# --------------------------------------------------------------------------- report
def test_figure_result_rows_and_lookup():
    figure = FigureResult("Fig X", "demo", columns=["query", "hail_s"])
    figure.add_row(query="Q1", hail_s=1.5)
    figure.add_row(query="Q2", hail_s=2.5)
    assert figure.column("hail_s") == [1.5, 2.5]
    assert figure.row_for("query", "Q2")["hail_s"] == 2.5
    with pytest.raises(KeyError):
        figure.row_for("query", "Q3")
    with pytest.raises(KeyError):
        figure.add_row(query="Q3", unknown=1)
    text = figure.to_text()
    assert "Fig X" in text and "Q2" in text


def test_figure_result_formats_missing_and_large_values():
    figure = FigureResult("Fig Y", "demo", columns=["a", "b"])
    figure.add_row(a=None, b=1234.5678)
    text = figure.to_text()
    assert "-" in text
    assert "1235" in text or "1234" in text


# --------------------------------------------------------------------------- deployments
def test_dataset_spec_resolution():
    assert DatasetSpec.by_name("uservisits").workload.name == "Bob"
    assert DatasetSpec.by_name("SYN").workload.name == "Synthetic"
    with pytest.raises(KeyError):
        DatasetSpec.by_name("tpch")


def test_build_deployment_uploads_requested_systems():
    config = ExperimentConfig(nodes=4, blocks_per_node=2, rows_per_block=40)
    deployment = build_deployment(config, dataset="uservisits", systems=("Hadoop", "HAIL"))
    assert set(deployment.systems) == {"Hadoop", "HAIL"}
    assert set(deployment.upload_reports) == {"Hadoop", "HAIL"}
    assert deployment.upload_reports["HAIL"].num_blocks == config.num_blocks
    assert isinstance(deployment.system("HAIL"), HailSystem)
    assert len(deployment.queries) == 5
    assert deployment.data_scale > 1.0


def test_build_deployment_hail_replication_and_index_extension():
    config = ExperimentConfig(nodes=5, blocks_per_node=1, rows_per_block=30)
    deployment = build_deployment(
        config, dataset="synthetic", systems=("HAIL",), num_indexes=5, hail_replication=5
    )
    hail = deployment.system("HAIL")
    assert hail.config.replication == 5
    assert hail.config.num_indexes == 5
    assert len(set(hail.config.index_attributes)) == 5


def test_build_deployment_trojan_attribute_override():
    config = ExperimentConfig(nodes=4, blocks_per_node=1, rows_per_block=30)
    deployment = build_deployment(
        config, dataset="uservisits", systems=("Hadoop++",), trojan_attribute=None
    )
    assert deployment.system("Hadoop++").num_indexes() == 0
    with pytest.raises(KeyError):
        build_deployment(config, dataset="uservisits", systems=("Spark",))


# --------------------------------------------------------------------------- layering
def test_the_library_does_not_import_the_experiments():
    """``repro.experiments`` sits on top of the library: nothing below it imports it back."""
    package = Path(repro.__file__).parent
    sources = [
        path for path in sorted(package.rglob("*.py")) if "experiments" not in path.parts
    ]
    assert len(sources) > 50
    for source in sources:
        imported = set()
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert not {
            module for module in imported if module.split(".")[:2] == ["repro", "experiments"]
        }, source.relative_to(package)


def test_the_experiments_are_the_papers_harnesses_only():
    """Extension curves are benchmark tests, not harnesses: the package exports the paper."""
    harnesses = {"upload", "scaleup", "scaleout", "queries", "failover", "splitting"}
    helpers = {
        "ExperimentConfig", "FigureResult", "DatasetSpec", "Deployment", "build_deployment",
        "run_all",
    }
    assert set(repro.experiments.__all__) == harnesses | helpers
