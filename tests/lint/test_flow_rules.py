"""RL101-RL104 behaviors: fixture corpus, mutant ground truth, the
whole-program payload key summary, and flow-vs-syntactic dedup."""

from pathlib import Path

import pytest

from repro.lint import all_rules, lint_file, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture path, the only code expected to fire, finding count)
BAD_FLOW = [
    ("protocols/bad_payload_escape.py", "RL101", 3),
    ("protocols/bad_vc_monotonic.py", "RL102", 5),
    ("sim/bad_flat_alloc_transitive.py", "RL104", 2),
]

GOOD_FLOW = [
    "protocols/good_payload_escape.py",
    "protocols/good_vc_monotonic.py",
    "sim/good_flat_alloc_transitive.py",
]


def run_flow(rel):
    return lint_file(FIXTURES / rel, all_rules(flow=True))


@pytest.mark.parametrize("rel,code,count", BAD_FLOW)
def test_bad_flow_fixture_fires_exactly_its_rule(rel, code, count):
    findings = run_flow(rel)
    assert {f.code for f in findings} == {code}
    assert len(findings) == count
    assert findings == sorted(findings)  # stable output ordering


@pytest.mark.parametrize("rel", GOOD_FLOW)
def test_good_flow_fixture_is_silent(rel):
    findings = run_flow(rel)
    assert findings == [], [f.render() for f in findings]


def test_payload_escape_fixture_covers_each_shape():
    messages = "\n".join(
        f.message for f in run_flow("protocols/bad_payload_escape.py"))
    assert "aliases live mutable state" in messages
    assert "live mutable state self._scratch escapes" in messages
    assert "mutated afterwards" in messages


def test_vc_monotonic_fixture_covers_each_shape():
    messages = "\n".join(
        f.message for f in run_flow("protocols/bad_vc_monotonic.py"))
    assert "decrement of vector-clock component self.vc" in messages
    assert "negative increment" in messages
    assert "bypasses the join/increment discipline" in messages
    assert "whole-vector rebind of self.vc" in messages
    assert "skips vector component(s) 0..0" in messages


def test_transitive_nondet_needs_the_multi_module_graph():
    # the wall-clock read lives in a zone-other helper module, so the
    # syntactic rules are silent; only lint_paths (which builds the
    # cross-module call graph) can see the chain into the sim zone
    report = lint_paths([FIXTURES / "flowproj"], flow=True)
    assert [(f.code, Path(f.path).name) for f in report.findings] == [
        ("RL103", "driver.py"),
    ]
    message = report.findings[0].message
    assert "now_ms" in message and "time.time" in message


def test_flow_rules_silent_without_flow_analysis():
    # plain runs never select RL101-RL104, and even a hand-built rule
    # instance stays silent when ctx.flow is missing
    for rel, _code, _n in BAD_FLOW:
        assert lint_file(FIXTURES / rel, all_rules()) == []


def test_flow_findings_dedup_against_syntactic_siblings():
    path = FIXTURES / "protocols" / "payload_escape_receive.py"
    full = lint_file(path, all_rules(flow=True))
    # RL003 already flags both lines; the RL101 twins are dropped
    assert [f.code for f in full] == ["RL003", "RL003"]
    only_flow = lint_file(path, all_rules(select=["RL101"]))
    assert [f.code for f in only_flow] == ["RL101", "RL101"]
    assert {f.line for f in only_flow} == {f.line for f in full}


# -- the shared ground-truth corpus: tests/mck/mutants.py -------------------

def test_mutants_are_flagged_statically():
    """The mck mutation suite's protocol-breaking mutants must be
    caught by the flow rules without running a single schedule.  The
    mutants file lives in the mck zone, so it is linted here under a
    protocols-zone path -- the zone its classes would ship in."""
    source = Path("tests/mck/mutants.py").read_text()
    fake = Path("src/repro/protocols/_mutants_corpus.py")
    findings = lint_file(fake, all_rules(flow=True), source=source)
    by_code = {}
    for f in findings:
        by_code.setdefault(f.code, []).append(f)
    # LeakyOptP: post-construction payload store of live mutable state
    assert len(by_code.get("RL101", [])) == 1
    assert "_scratch" in by_code["RL101"][0].message
    # BrokenANBKH: the range(1, ...) loop building its requirement row
    # skips writer 0's vector component
    assert len(by_code.get("RL102", [])) == 1
    assert "skips vector component(s) 0..0" in by_code["RL102"][0].message
    # nothing else fires: BrokenOptP's off-by-one slack is a *logic*
    # mutation the dynamic conformance suite owns
    assert set(by_code) == {"RL101", "RL102"}


def test_payload_key_summary_proves_wire_discipline():
    """The whole-program key summary must prove the repo's
    tuple-on-the-wire discipline: no payload key ever carries a
    provably mutable object, so the receive-side RL101 check needs no
    new suppressions anywhere in src/repro."""
    from repro.lint.context import ModuleContext
    from repro.lint.flow import build_flow
    from repro.lint.runner import collect_files

    contexts = [
        ModuleContext.parse(p)
        for p in collect_files([Path("src/repro")])
    ]
    flow = build_flow(contexts)
    keys = flow.payload_keys._keys
    assert keys, "no payload placements found in src/repro?"
    assert "mutable" not in keys.values(), keys
    # the vector-clock keys are positively proven frozen
    assert keys["VT_KEY"] == "frozen"
    assert keys["VAR_PAST_KEY"] == "frozen"
