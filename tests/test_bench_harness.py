"""Unit tests for the benchmark harness and reporting helpers."""

from __future__ import annotations

import pytest

from repro.bench import (
    VERSIONS,
    format_series,
    format_table,
    generate_document,
    geomean,
    make_engine,
    run_experiment,
    run_version,
)
from repro.core.engine import GapEngine, PPTransducerEngine, SequentialEngine
from repro.datasets import dataset_by_name


class TestMakeEngine:
    DS = dataset_by_name("dblp")

    def test_all_named_versions_construct(self):
        for version in (*VERSIONS, "seq", "gap-noswitch", "gap-noelim", "gap-eager"):
            engine = make_engine(version, ["/dp/ar/au"], self.DS, 4)
            assert engine is not None

    def test_version_types(self):
        assert isinstance(make_engine("seq", ["//au"], self.DS, 4), SequentialEngine)
        assert isinstance(make_engine("pp", ["//au"], self.DS, 4), PPTransducerEngine)
        gap = make_engine("gap-nonspec", ["//au"], self.DS, 4)
        assert isinstance(gap, GapEngine) and gap.mode == "nonspec"

    def test_spec_fraction_parsing(self):
        spec = make_engine("gap-spec40", ["//au"], self.DS, 4)
        assert spec.mode == "spec"

    def test_learned_version(self):
        prior = self.DS.generate(scale=0.2, seed=9)
        engine = make_engine("gap-learned", ["//au"], self.DS, 4, learn_from=prior)
        assert engine.learner.documents_observed == 1

    def test_unknown_version(self):
        with pytest.raises(ValueError):
            make_engine("gap-magic", ["//au"], self.DS, 4)


class TestRunVersion:
    def test_detects_wrong_results(self, monkeypatch):
        ds = dataset_by_name("dblp")
        text = generate_document(ds.name, 1.0, 0)
        reference = SequentialEngine(["//au"]).run(text)
        # sabotage the reference to prove the check fires
        reference.offsets_by_id[0] = [1, 2, 3]
        with pytest.raises(AssertionError, match="different matches"):
            run_version("pp", ds, ["//au"], text, reference, n_cores=4)

    def test_speedup_positive(self):
        ds = dataset_by_name("dblp")
        text = generate_document(ds.name, 2.0, 0)
        reference = SequentialEngine(["//au"]).run(text)
        run = run_version("gap-nonspec", ds, ["//au"], text, reference, n_cores=8)
        assert run.speedup > 1.0
        assert run.report.n_cores == 8


class TestRunExperiment:
    def test_returns_all_versions(self):
        ds = dataset_by_name("lineitem")
        runs = run_experiment(ds, ["/table/T/EP"], versions=("pp", "gap-nonspec"),
                              scale=1.0, n_cores=4)
        assert set(runs) == {"pp", "gap-nonspec"}
        assert runs["gap-nonspec"].speedup >= runs["pp"].speedup * 0.5

    def test_document_cache(self):
        a = generate_document("dblp", 1.0, 0)
        b = generate_document("dblp", 1.0, 0)
        assert a is b  # lru-cached


class TestGeomean:
    def test_values(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["name", "v"], [["a", 1.5], ["bbbb", 2.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in out and "2.25" in out
        # the value column starts at the same position in every row
        positions = {line.find("v") for line in lines[:1]}
        positions |= {line.find("1.50") for line in lines if "1.50" in line}
        positions |= {line.find("2.25") for line in lines if "2.25" in line}
        assert len(positions) == 1

    def test_format_table_special_values(self):
        out = format_table(["x"], [[None], [0.00001], [7]])
        assert "-" in out
        assert "0.00001" in out
        assert "7" in out

    def test_format_table_title_banner(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert "My Table" in out
        assert "====" in out

    def test_format_series(self):
        out = format_series("n", [1, 2], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        lines = out.splitlines()
        assert lines[0].split() == ["n", "a", "b"]
        assert "4.00" in out
