"""Bench-compare sentinel tests.

The CI gate's contract: a regression injected into a current report
makes ``bench compare`` fail (exit 1), the committed baseline against
the committed reports passes, and ``--update`` refreshes recorded
values without touching rules.
"""

import json
from pathlib import Path

import pytest

from repro.obs import compare_benchmarks, load_baseline, update_baseline
from repro.obs.benchcmp import BASELINE_VERSION, DEFAULT_BASELINE

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))


def baseline_doc(metrics):
    return {"version": BASELINE_VERSION, "metrics": metrics}


@pytest.fixture
def bench_dir(tmp_path):
    write_json(tmp_path / "BENCH_x.json",
               {"states": 100, "speedup": 8.0, "overhead": 1.01,
                "rate": 5000.0, "nested": {"leaf": 7}})
    return tmp_path


class TestLoadBaseline:
    def test_rejects_wrong_version(self, tmp_path):
        p = tmp_path / "b.json"
        write_json(p, {"version": 99, "metrics": [{}]})
        with pytest.raises(ValueError, match="version"):
            load_baseline(p)

    def test_rejects_empty_metrics(self, tmp_path):
        p = tmp_path / "b.json"
        write_json(p, baseline_doc([]))
        with pytest.raises(ValueError, match="no metrics"):
            load_baseline(p)

    def test_rejects_missing_fields(self, tmp_path):
        p = tmp_path / "b.json"
        write_json(p, baseline_doc([{"id": "x", "kind": "exact"}]))
        with pytest.raises(ValueError, match="missing"):
            load_baseline(p)

    def test_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "b.json"
        write_json(p, baseline_doc([
            {"id": "x", "file": "f", "path": "p", "kind": "fuzzy"}]))
        with pytest.raises(ValueError, match="unknown kind"):
            load_baseline(p)


class TestKinds:
    def _one(self, spec, bench_dir):
        comparison = compare_benchmarks(baseline_doc([spec]), bench_dir)
        (check,) = comparison.checks
        return check

    def test_exact_pass_and_fail(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "states",
                "kind": "exact", "baseline": 100}
        assert self._one(spec, bench_dir).status == "ok"
        spec["baseline"] = 101
        assert self._one(spec, bench_dir).status == "fail"

    def test_exact_without_baseline_skips(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "states",
                "kind": "exact"}
        assert self._one(spec, bench_dir).status == "skip"

    def test_max_bar(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "overhead",
                "kind": "max", "limit": 1.05}
        assert self._one(spec, bench_dir).status == "ok"
        spec["limit"] = 1.0
        assert self._one(spec, bench_dir).status == "fail"

    def test_min_bar(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "speedup",
                "kind": "min", "limit": 4.0}
        assert self._one(spec, bench_dir).status == "ok"
        spec["limit"] = 10.0
        assert self._one(spec, bench_dir).status == "fail"

    def test_ratio_higher_better(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "rate",
                "kind": "ratio", "baseline": 9000.0, "tolerance": 0.5}
        assert self._one(spec, bench_dir).status == "ok"  # 5000 >= 4500
        spec["baseline"] = 20000.0
        assert self._one(spec, bench_dir).status == "fail"

    def test_ratio_lower_better(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "rate",
                "kind": "ratio", "baseline": 4000.0, "tolerance": 0.5,
                "direction": "lower_better"}
        assert self._one(spec, bench_dir).status == "ok"  # 5000 <= 6000
        spec["baseline"] = 3000.0
        assert self._one(spec, bench_dir).status == "fail"

    def test_ratio_without_baseline_skips(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "rate",
                "kind": "ratio"}
        assert self._one(spec, bench_dir).status == "skip"

    def test_dotted_path_resolution(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_x.json", "path": "nested.leaf",
                "kind": "exact", "baseline": 7}
        assert self._one(spec, bench_dir).status == "ok"

    def test_missing_source_skips_unless_required(self, bench_dir):
        spec = {"id": "m", "file": "BENCH_gone.json", "path": "x",
                "kind": "exact", "baseline": 1}
        assert self._one(spec, bench_dir).status == "skip"
        spec["required"] = True
        check = self._one(spec, bench_dir)
        assert check.status == "fail"
        assert "(required)" in check.detail


class TestComparison:
    def test_ok_aggregates_and_render(self, bench_dir):
        metrics = [
            {"id": "good", "file": "BENCH_x.json", "path": "states",
             "kind": "exact", "baseline": 100},
            {"id": "bad", "file": "BENCH_x.json", "path": "states",
             "kind": "exact", "baseline": 1},
        ]
        comparison = compare_benchmarks(baseline_doc(metrics), bench_dir)
        assert not comparison.ok
        assert [c.id for c in comparison.failures] == ["bad"]
        text = comparison.render()
        assert "FAIL" in text and "bench compare: FAIL" in text
        doc = comparison.to_dict()
        assert doc["ok"] is False and len(doc["checks"]) == 2

    def test_update_refreshes_recorded_values(self, bench_dir):
        metrics = [
            {"id": "m", "file": "BENCH_x.json", "path": "states",
             "kind": "exact", "baseline": 1},
            {"id": "gone", "file": "BENCH_gone.json", "path": "x",
             "kind": "exact", "baseline": 42},
        ]
        refreshed = update_baseline(baseline_doc(metrics), bench_dir)
        assert refreshed["metrics"][0]["baseline"] == 100
        assert refreshed["metrics"][1]["baseline"] == 42  # source absent
        # rules (kind/limit/file/path) untouched
        assert refreshed["metrics"][0]["kind"] == "exact"
        # the refreshed doc passes its own comparison
        assert compare_benchmarks(refreshed, bench_dir).checks[0].ok


class TestCommittedBaseline:
    """The in-repo gate: committed baseline vs committed reports."""

    def test_committed_baseline_passes_on_committed_reports(self):
        baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
        comparison = compare_benchmarks(baseline, REPO_ROOT)
        assert comparison.ok, comparison.render()
        # the deterministic core metrics must actually run, not skip
        ran = {c.id for c in comparison.checks if c.status == "ok"}
        assert "mck.optp.unnecessary_delays" in ran
        assert "mck.anbkh.unnecessary_delays" in ran
        assert "obs.disabled_over_bare" in ran
        assert "flatstate.chain.deliveries_per_sec_256" in ran

    def test_injected_regression_fails(self, tmp_path):
        """Copy the committed reports, inject a state-count drift, and
        the sentinel must exit nonzero."""
        baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
        for name in ("BENCH_mck.json", "BENCH_obs.json",
                     "BENCH_scheduler.json", "BENCH_flatstate.json",
                     "BENCH_sweep.json"):
            (tmp_path / name).write_text((REPO_ROOT / name).read_text())
        doc = json.loads((tmp_path / "BENCH_mck.json").read_text())
        doc["optp"]["unnecessary_delays"] = 3  # Theorem 4 regression
        write_json(tmp_path / "BENCH_mck.json", doc)
        comparison = compare_benchmarks(baseline, tmp_path)
        assert not comparison.ok
        assert any(c.id == "mck.optp.unnecessary_delays"
                   for c in comparison.failures)


class TestCli:
    def _reports(self, tmp_path):
        write_json(tmp_path / "BENCH_x.json", {"states": 100})
        base = tmp_path / "base.json"
        write_json(base, baseline_doc([
            {"id": "m", "file": "BENCH_x.json", "path": "states",
             "kind": "exact", "baseline": 100, "required": True}]))
        return base

    def test_cli_pass_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        base = self._reports(tmp_path)
        rc = main(["bench", "compare", "--baseline", str(base),
                   "--bench-dir", str(tmp_path)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_cli_regression_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        base = self._reports(tmp_path)
        write_json(tmp_path / "BENCH_x.json", {"states": 99})
        rc = main(["bench", "compare", "--baseline", str(base),
                   "--bench-dir", str(tmp_path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_missing_baseline_exit_two(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["bench", "compare",
                   "--baseline", str(tmp_path / "absent.json"),
                   "--bench-dir", str(tmp_path)])
        assert rc == 2

    def test_cli_update_rewrites_baseline(self, tmp_path):
        from repro.cli import main

        base = self._reports(tmp_path)
        write_json(tmp_path / "BENCH_x.json", {"states": 123})
        rc = main(["bench", "compare", "--baseline", str(base),
                   "--bench-dir", str(tmp_path), "--update"])
        assert rc == 0
        assert load_baseline(base)["metrics"][0]["baseline"] == 123

    def test_cli_json_verdicts(self, tmp_path):
        from repro.cli import main

        base = self._reports(tmp_path)
        out = tmp_path / "verdicts.json"
        rc = main(["bench", "compare", "--baseline", str(base),
                   "--bench-dir", str(tmp_path), "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["checks"][0]["id"] == "m"
