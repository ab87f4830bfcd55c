"""Witness-trace regression fixtures: build / save / load / replay.

A violation found by the checker must survive the trip to disk and
back: ``build_witness`` serializes the minimized counterexample,
``replay_witness`` re-executes it from the initial state and confirms
the stored verdict **byte-identically** (trace text included).  These
tests pin that contract, the strict load-time validation that protects
it, and the ``repro-dsm check --replay`` CLI entry point.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.mck import (
    CheckConfig,
    build_witness,
    check,
    load_witness,
    minimize_witness,
    parse_faults,
    replay_path,
    replay_witness,
    save_witness,
    workload_by_name,
)
from repro.mck.witness import config_from_dict, config_to_dict

#: A named-protocol configuration with a known violation: OptP loses a
#: message and never retransmits, so quiescence leaves a write unapplied
#: (liveness).  Small state space -- fast to explore and minimize.
LOSSY = dict(protocol="optp", workload="pair",
             faults="drop:1,noretransmit")


def lossy_config(**overrides):
    kwargs = dict(
        protocol=LOSSY["protocol"],
        workload=workload_by_name(LOSSY["workload"]),
        faults=parse_faults(LOSSY["faults"]),
        stop_on_violation=True,
    )
    kwargs.update(overrides)
    return CheckConfig(**kwargs)


@pytest.fixture(scope="module")
def lossy_witness():
    config = lossy_config()
    result = check(config)
    assert not result.ok
    return config, result, build_witness(config, result.violations[0])


class TestBuild:
    def test_document_shape(self, lossy_witness):
        _, _, doc = lossy_witness
        assert doc["mck_witness"] == 1
        assert sorted(doc) == sorted(
            ["mck_witness", "config", "choices", "finding", "verdict",
             "trace"])
        assert doc["finding"] in doc["verdict"]["findings"]
        assert doc["trace"].endswith("\n")

    def test_minimization_shortens_or_matches(self, lossy_witness):
        config, result, doc = lossy_witness
        assert 0 < len(doc["choices"]) <= len(result.violations[0].choices)

    def test_unminimized_build_keeps_original_path(self, lossy_witness):
        config, result, _ = lossy_witness
        doc = build_witness(config, result.violations[0], minimize=False)
        assert [tuple(t) for t in doc["choices"]] == \
            list(result.violations[0].choices)

    def test_factory_protocol_refused(self):
        from tests.mck.mutants import BrokenOptP

        config = CheckConfig(protocol=BrokenOptP,
                             workload=workload_by_name("pair"))
        with pytest.raises(ValueError, match="factory"):
            config_to_dict(config)


class TestMinimizationBudget:
    """``max_states`` is one budget for every deepening round of
    ``minimize_witness``; once it is spent the minimiser answers None,
    since no path is known to be minimal.  It never executes the path it
    is given, only bounds the deepening by its length, so a stand-in of
    the witness's length serves (on ``pair`` every lossy violation is
    already minimal)."""

    @pytest.fixture(scope="class")
    def rounds(self, lossy_witness):
        """(stand-in fallback, minimal path, states of each round up to
        and including the one that finds the witness)."""
        config, _, doc = lossy_witness
        witness = [tuple(t) for t in doc["choices"]]
        states = []
        for limit in range(1, len(witness) + 1):
            result = check(replace(config, max_depth=limit))
            states.append(result.states)
            if not result.ok:
                break
        fallback = [("stand-in", i) for i in range(len(witness))]
        return fallback, witness, states

    def test_budget_too_small_for_the_first_round(self, lossy_witness,
                                                  rounds):
        config = lossy_witness[0]
        fallback, _, states = rounds
        assert minimize_witness(config, fallback,
                                max_states=states[0] - 1) is None

    def test_budget_is_shared_across_rounds(self, lossy_witness, rounds):
        config = lossy_witness[0]
        fallback, witness, states = rounds
        assert len(states) > 1
        each, total = max(states), sum(states)
        # enough for every round alone, not for all of them together
        assert minimize_witness(config, fallback,
                                max_states=each) is None
        assert minimize_witness(config, fallback,
                                max_states=total) == witness

    def test_build_keeps_the_search_path_when_the_budget_runs_out(
            self, lossy_witness):
        config, result, _ = lossy_witness
        violation = result.violations[0]
        doc = build_witness(config, violation, minimize_states=1)
        assert [tuple(t) for t in doc["choices"]] == list(violation.choices)


class TestRoundTrip:
    def test_save_load_replay_is_byte_identical(self, tmp_path,
                                                lossy_witness):
        _, _, doc = lossy_witness
        path = tmp_path / "w.json"
        save_witness(doc, path)
        loaded = load_witness(path)
        assert loaded == doc
        outcome, problems = replay_witness(loaded)
        assert problems == []
        assert outcome.trace_jsonl == doc["trace"]

    def test_config_round_trip(self, lossy_witness):
        config, _, doc = lossy_witness
        assert config_to_dict(config_from_dict(doc["config"])) \
            == doc["config"]

    def test_save_is_deterministic(self, tmp_path, lossy_witness):
        _, _, doc = lossy_witness
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_witness(doc, a)
        save_witness(json.loads(a.read_text()), b)
        assert a.read_bytes() == b.read_bytes()


class TestStrictLoading:
    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_witness(path)

    def test_rejects_wrong_version(self, tmp_path, lossy_witness):
        _, _, doc = lossy_witness
        path = tmp_path / "w.json"
        save_witness({**doc, "mck_witness": 99}, path)
        with pytest.raises(ValueError, match="version"):
            load_witness(path)

    @pytest.mark.parametrize("mutate", [
        lambda d: {k: v for k, v in d.items() if k != "trace"},   # missing
        lambda d: {**d, "extra": 1},                              # extra
        lambda d: [d],                                            # not a dict
    ])
    def test_rejects_wrong_key_set(self, tmp_path, lossy_witness, mutate):
        _, _, doc = lossy_witness
        path = tmp_path / "w.json"
        path.write_text(json.dumps(mutate(doc)))
        with pytest.raises(ValueError, match="keys"):
            load_witness(path)

    def test_rejects_malformed_config(self, lossy_witness):
        _, _, doc = lossy_witness
        bad = dict(doc["config"])
        del bad["seed"]
        with pytest.raises(ValueError, match="malformed check config"):
            config_from_dict(bad)


class TestStaleness:
    def test_disabled_choice_is_a_stale_fixture_error(self):
        """A witness whose path no longer exists in the transition
        system (code or workload changed) must fail loudly, not replay
        something else."""
        config = lossy_config(faults=parse_faults("none"))
        with pytest.raises(ValueError, match="not enabled"):
            # drop transitions only exist under a drop-fault adversary
            replay_path(config, [("op", 0), ("drop", "u:0.0>1")])

    def test_tampered_verdict_reported_as_mismatch(self, lossy_witness):
        _, _, doc = lossy_witness
        tampered = json.loads(json.dumps(doc))
        tampered["verdict"]["status"] = "quiescent"
        tampered["verdict"]["findings"] = []
        outcome, problems = replay_witness(tampered)
        assert problems  # status and findings both differ
        assert any("status" in p for p in problems)

    def test_tampered_trace_reported_as_mismatch(self, lossy_witness):
        _, _, doc = lossy_witness
        tampered = json.loads(json.dumps(doc))
        tampered["trace"] += " "
        _, problems = replay_witness(tampered)
        assert any("byte-identical" in p for p in problems)


class TestCliReplay:
    def test_check_writes_witness_and_replay_reproduces(
        self, tmp_path, capsys
    ):
        wpath = tmp_path / "witness.json"
        rc = main(["check", "-p", LOSSY["protocol"],
                   "-w", LOSSY["workload"],
                   "--faults", LOSSY["faults"],
                   "--no-cache", "--witness-out", str(wpath)])
        out = capsys.readouterr().out
        assert rc == 1                       # violations found
        assert wpath.exists()
        assert "witness" in out
        assert "choices, minimized)" in out

        rc = main(["check", "--replay", str(wpath)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reproduced byte-identically" in out

    def test_replay_rejects_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        assert main(["check", "--replay", str(path)]) == 2
