"""Tentpole benchmark: multi-process networked serving throughput.

Three measurements, mirroring the serving PR's claims:

- **n=3 saturation** -- one OptP replica group (3 server processes on
  unix sockets), an in-process load generator running pipelined
  micro-batched sessions at ``rate=0`` (closed-loop saturation).
  Reports ops/s only: ``loadgen`` stamps every op of a batch with the
  batch's latency, so a read/write split of it is fiction -- latency
  is published by the repo benchmark (``bench/``), per single op.
- **2-shard n=6 saturation** -- two replica groups with the key space
  CRC-sharded across them, two spawned loadgen worker processes.
  Sharding is the horizontal-scale story: groups never talk to each
  other, so throughput should scale with shard count once there are
  cores to back it.
- **Recorded conformance run** -- a *rate-limited* run with event
  recording on, drained, merged, and replayed through the full oracle
  stack (legality checker + mck invariants + delay audit).  Always
  asserted: a fast server that serves a non-causal history is a bug,
  not a benchmark.  This run is short and slow on purpose -- the
  legality checker is O(W^2) in writes, so conformance and throughput
  are measured by *separate* runs (same server binary, same wire
  protocol; only the load shape differs).

``test_serve_throughput_report`` writes ``BENCH_serve.json`` at the
repo root (wired into ``repro-dsm bench compare`` via
``artifacts/bench_baseline.json``).  The headline >= 100k ops/s bar is
only *enforced* on hosts with >= 8 CPUs: 7 processes saturating a
single container core measure scheduler context-switching, not the
server (a 1-CPU container does ~50k ops/s).  The conformance gate and
the recorded numbers apply everywhere.
"""

import json
import os
from pathlib import Path

import pytest

from repro.serve import LoadgenConfig, serve_and_load

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_serve.json"

THROUGHPUT_FLOOR = 100_000.0
THROUGHPUT_MIN_CPUS = 8
#: every host, however small, must clear this (sanity, not a target).
THROUGHPUT_SANITY_FLOOR = 5_000.0

SATURATION_SECONDS = 1.5
CONFORMANCE_SECONDS = 1.0
CONFORMANCE_RATE = 400.0


def _saturation(shards, workers, rundir):
    cfg = LoadgenConfig(batch=128, pipeline=4, read_fraction=0.9,
                        keys=64, rate=0.0)
    return serve_and_load(
        "optp",
        group_size=3,
        shards=shards,
        rundir=rundir,
        duration=SATURATION_SECONDS,
        workers=workers,
        loadgen=cfg,
    )


def _conformance(rundir):
    cfg = LoadgenConfig(batch=8, pipeline=2, read_fraction=0.7,
                        keys=16, rate=CONFORMANCE_RATE)
    return serve_and_load(
        "optp",
        group_size=3,
        shards=1,
        rundir=rundir,
        duration=CONFORMANCE_SECONDS,
        record=True,
        verify=True,
        loadgen=cfg,
    )


def _load_section(report):
    load = report["load"]
    return {
        "nodes": report["nodes"],
        "shards": report["shards"],
        "workers": report["workers"],
        "ops": load["ops"],
        "batches": load["batches"],
        "ops_per_sec": load["ops_per_sec"],
    }


def test_serve_throughput_report(tmp_path):
    """Times everything, asserts the bars, writes ``BENCH_serve.json``."""
    cpu_count = os.cpu_count() or 1

    n3 = _saturation(shards=1, workers=1, rundir=tmp_path / "n3")
    shard2 = _saturation(shards=2, workers=2, rundir=tmp_path / "shard2")
    conf = _conformance(tmp_path / "conf")

    group = conf["conformance"]["groups"][0]
    throughput_enforced = cpu_count >= THROUGHPUT_MIN_CPUS

    report = {
        "bench": "multi-process networked serving (OptP KV store)",
        "cpu_count": cpu_count,
        "throughput_enforced": throughput_enforced,
        "throughput_floor_ops_per_sec": THROUGHPUT_FLOOR,
        "n3": _load_section(n3),
        "shard2": _load_section(shard2),
        "conformance": {
            "protocol": group["protocol"],
            "rate": CONFORMANCE_RATE,
            "events": group["events"],
            "writes": group["writes"],
            "reads": group["reads"],
            "checker_problems": len(group["checker_problems"]),
            "invariant_findings": len(group["invariant_findings"]),
            "unnecessary_delays": group["unnecessary_delays"],
        },
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    # the always-on gate: the served history is causally consistent,
    # optimal, and fully propagated -- on every host.
    assert conf["conformance"]["ok"], group
    assert report["conformance"]["checker_problems"] == 0
    assert report["conformance"]["invariant_findings"] == 0
    assert report["conformance"]["unnecessary_delays"] == 0

    for name in ("n3", "shard2"):
        section = report[name]
        assert section["ops"] > 0 and section["batches"] > 0
        assert section["ops_per_sec"] >= THROUGHPUT_SANITY_FLOOR, (
            f"{name}: {section['ops_per_sec']:.0f} ops/s is below the "
            f"sanity floor {THROUGHPUT_SANITY_FLOOR:.0f} -- the serving "
            f"stack itself regressed")

    if throughput_enforced:
        best = max(report["n3"]["ops_per_sec"],
                   report["shard2"]["ops_per_sec"])
        assert best >= THROUGHPUT_FLOOR, (
            f"peak {best:.0f} ops/s below the {THROUGHPUT_FLOOR:.0f} "
            f"floor on {cpu_count} CPUs: "
            f"n3={report['n3']}, shard2={report['shard2']}")
