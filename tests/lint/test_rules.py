"""Per-rule proof: each bad fixture fires its rule, each good fixture
stays silent -- under the *full* rule set, so fixtures also prove the
rules don't bleed into each other."""

from pathlib import Path

import pytest

from repro.lint import all_rules, lint_file, zone_of

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture path, the only code expected to fire there)
BAD = [
    ("sim/bad_determinism.py", "RL001"),
    ("sim/bad_set_iter.py", "RL002"),
    ("protocols/bad_aliasing.py", "RL003"),
    ("protocols/bad_contract.py", "RL004"),
    ("protocols/bad_hooks.py", "RL005"),
    ("hotpath_bad/node.py", "RL006"),
    ("sim/bad_isolation.py", "RL007"),
    ("protocols/bad_isolation_protocol.py", "RL007"),
    ("sweep/bad_worker.py", "RL008"),
    ("sweep/bad_determinism.py", "RL001"),
    ("sim/bad_flat_alloc.py", "RL009"),
    ("flatstate_bad/flatstate.py", "RL006"),
    ("mck/bad_obsgate.py", "RL006"),
    ("protocols/bad_flat_decl.py", "RL004"),
    ("serve/bad_worker.py", "RL008"),
    ("serve/bad_determinism.py", "RL001"),
    ("serve_hotpath_bad/server.py", "RL006"),
]

GOOD = [
    "sim/good_determinism.py",
    "sim/good_set_iter.py",
    "protocols/good_aliasing.py",
    "protocols/good_contract.py",
    "protocols/good_hooks.py",
    "hotpath_good/node.py",
    "sim/good_isolation.py",
    "sweep/good_worker.py",
    "sim/good_flat_alloc.py",
    "flatstate_good/flatstate.py",
    "mck/good_obsgate.py",
    "protocols/good_flat_decl.py",
    "serve/good_worker.py",
    "serve/good_determinism.py",
    "serve_hotpath_good/server.py",
]


def run(rel):
    return lint_file(FIXTURES / rel, all_rules())


@pytest.mark.parametrize("rel,code", BAD)
def test_bad_fixture_fires_exactly_its_rule(rel, code):
    findings = run(rel)
    assert findings, f"{rel} produced no findings"
    assert {f.code for f in findings} == {code}


@pytest.mark.parametrize("rel", GOOD)
def test_good_fixture_is_silent(rel):
    findings = run(rel)
    assert findings == [], [f.render() for f in findings]


def test_zone_inference_matches_package_layout():
    assert zone_of(FIXTURES / "sim" / "bad_determinism.py") == "sim"
    assert zone_of(Path("src/repro/protocols/gossip.py")) == "protocols"
    assert zone_of(Path("src/repro/cli.py")) == "other"


# -- finding shapes ---------------------------------------------------------

def test_determinism_fixture_covers_each_source():
    findings = run("sim/bad_determinism.py")
    messages = "\n".join(f.message for f in findings)
    assert "time.time" in messages
    assert "datetime" in messages
    assert "os.urandom" in messages
    assert "random.random" in messages
    assert "random.Random() without a seed" in messages


def test_aliasing_fixture_covers_each_pattern():
    findings = run("protocols/bad_aliasing.py")
    messages = "\n".join(f.message for f in findings)
    # receiver-side store of a payload value
    assert "payload value stored into protocol state" in messages
    # mutable vector shipped in a payload
    assert "shipped in a message payload" in messages
    # sender-side alias of the in-flight message
    assert "aliases the in-flight message" in messages
    # internal vector aliasing
    assert "aliasing internal vector self.write_co" in messages
    # live state returned from introspection
    assert "introspection must return snapshots" in messages


def test_contract_fixture_names_missing_hooks():
    findings = run("protocols/bad_contract.py")
    messages = "\n".join(f.message for f in findings)
    assert "missing mandatory hook(s): read, classify, apply_update" in messages
    assert "OrphanDepsProtocol.missing_deps re-states the wait" in messages
    assert "requirement must keep the (self, msg) signature" in messages
    assert len(findings) == 3


def test_flat_decl_fixture_names_each_mismatch():
    findings = run("protocols/bad_flat_decl.py")
    messages = "\n".join(f.message for f in findings)
    assert "DeclaredTwice.missing_deps re-states the wait predicate" \
        in messages
    assert "DefaultedMessage.requirement must keep the (self, msg)" \
        in messages
    assert "KeywordExtra.requirement must keep the (self, msg)" in messages
    assert len(findings) == 3


def test_hooks_fixture_names_each_capability():
    findings = run("protocols/bad_hooks.py")
    messages = "\n".join(f.message for f in findings)
    assert "timer_interval" in messages
    assert "discard_update" in messages
    assert "missing_applies" in messages
    assert len(findings) == 3


def test_obs_fixture_flags_each_instrument_kind():
    findings = run("hotpath_bad/node.py")
    messages = "\n".join(f.message for f in findings)
    assert "instrument update .inc()" in messages
    assert "instrument update .set()" in messages
    assert "sink callback .on_apply()" in messages
    assert "registry lookup .counter()" in messages
    assert "registry lookup .gauge()" in messages


def test_worker_fixture_flags_each_unpicklable_shape():
    findings = run("sweep/bad_worker.py")
    messages = "\n".join(f.message for f in findings)
    assert "lambda" in messages
    assert "nested function 'local_worker'" in messages
    assert "bound method 'self.run_one'" in messages
    # the module-level lambda assignment is unpicklable too
    assert "'double'" in messages
    assert len(findings) == 4


def test_flat_alloc_fixture_flags_each_hot_zone():
    findings = run("sim/bad_flat_alloc.py")
    messages = "\n".join(f.message for f in findings)
    assert "CountingScheduler.offer()" in messages
    assert "CountingScheduler.notify_applied()" in messages
    assert "VectorProtocol.requirement()" in messages
    assert "Node._receive_update()" in messages
    assert all(f.code == "RL009" for f in findings)
    assert len(findings) == 5  # offer fires twice (list + tuple)


def test_sweep_zone_inference():
    assert zone_of(FIXTURES / "sweep" / "bad_worker.py") == "sweep"
    assert zone_of(Path("src/repro/sweep/worker.py")) == "sweep"


def test_serve_zone_inference():
    assert zone_of(FIXTURES / "serve" / "bad_worker.py") == "serve"
    assert zone_of(Path("src/repro/serve/loadgen.py")) == "serve"
    # the hot-path fixtures deliberately sit outside the serve zone so
    # RL006 coverage is proven to come from the filename alone
    assert zone_of(FIXTURES / "serve_hotpath_bad" / "server.py") == "other"


def test_serve_hot_path_covers_server_and_codec():
    from repro.lint.context import ModuleContext

    srv = ModuleContext.parse(FIXTURES / "serve_hotpath_bad" / "server.py")
    assert srv.is_hot_path  # by filename, regardless of zone
    assert zone_of(Path("src/repro/serve/codec.py")) == "serve"


def test_serve_worker_fixture_flags_each_unpicklable_shape():
    findings = run("serve/bad_worker.py")
    messages = "\n".join(f.message for f in findings)
    assert "lambda" in messages
    assert "nested function 'local_main'" in messages
    assert "bound method 'self.node_main'" in messages
    assert "'boot'" in messages  # module-level lambda assignment
    # Process(target=...) and pool.submit() are both covered
    labels = "\n".join(f.message for f in findings)
    assert "Process(target=...)" in labels
    assert ".submit()" in labels
    assert all(f.code == "RL008" for f in findings)
    assert len(findings) == 5


def test_serve_obs_fixture_flags_each_site():
    findings = run("serve_hotpath_bad/server.py")
    messages = "\n".join(f.message for f in findings)
    assert "registry lookup .counter()" in messages
    assert "registry lookup .gauge()" in messages
    assert "instrument update .inc()" in messages
    assert "instrument update .set()" in messages
    assert len(findings) == 4


def test_hot_path_covers_flatstate_and_mck_zone():
    from repro.lint.context import ModuleContext

    flat = ModuleContext.parse(FIXTURES / "flatstate_bad" / "flatstate.py")
    assert flat.is_hot_path  # by filename, regardless of zone
    mck = ModuleContext.parse(FIXTURES / "mck" / "good_obsgate.py")
    assert mck.zone == "mck" and mck.is_hot_path  # by zone
    assert zone_of(Path("src/repro/mck/explorer.py")) == "mck"


def test_flatstate_obs_fixture_flags_each_site():
    findings = run("flatstate_bad/flatstate.py")
    messages = "\n".join(f.message for f in findings)
    assert "registry lookup .counter()" in messages
    assert "registry lookup .gauge()" in messages
    assert "instrument update .inc()" in messages
    assert "instrument update .set()" in messages
    assert len(findings) == 4


def test_mck_obs_fixture_flags_each_site():
    findings = run("mck/bad_obsgate.py")
    messages = "\n".join(f.message for f in findings)
    assert "registry lookup .counter()" in messages
    assert "instrument update .inc()" in messages
    assert "sink callback .on_apply()" in messages
    assert len(findings) == 3


def test_isolation_fixture_flags_reads_and_writes():
    findings = run("sim/bad_isolation.py")
    messages = "\n".join(f.message for f in findings)
    assert "cross-node access .protocol.apply_update" in messages
    assert "cross-node access .protocol.write_co" in messages
    assert "assignment to .protocol.write_co" in messages
