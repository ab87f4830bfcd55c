"""Command-line interface: ``repro-dsm``.

Subcommands:

- ``artifacts [name ...]``  print regenerated paper tables/figures;
- ``run``                   run one protocol on a random workload,
  verify it, and print metrics (+ optional space-time diagram;
  ``--trace-out``/``--metrics-out`` export a Perfetto trace and a
  metrics snapshot, see docs/observability.md);
- ``obs FILE``              summarize a saved ``--metrics-out`` file;
- ``compare``               all protocols on one identical schedule;
- ``sweep AXIS``            delay sweeps (Q1a-Q1c, Q3); ``--jobs N``
  parallelizes across worker processes and ``--cache-dir``/``--no-cache``
  control the content-addressed result cache (byte-identical output
  either way, see docs/performance.md);
- ``scenario NAME``         run an H1 figure scenario and show the
  sequence at p3 plus the delay audit;
- ``critpath [NAME]``       profile an H1 scenario's write delays:
  per-dependency blocked-time attribution, necessity split, and the
  critical dependency chain, per protocol (see docs/observability.md);
- ``check``                 model-check a protocol over *all* message
  interleavings of small workloads (safety/optimality/liveness/
  convergence/isolation invariants, optional fault injection, witness
  export and byte-identical ``--replay``; see docs/model-checking.md);
- ``serve``                 boot a multi-process causally consistent
  KV deployment (one OS process per replica, binary wire protocol,
  key-space sharding; ``--duration`` runs a one-shot load + drain +
  conformance cycle, see docs/serving.md);
- ``loadgen``               drive open-loop load against an
  already-running ``serve`` deployment and report ops/s + p50/p99;
- ``bench compare``         diff the current ``BENCH_*.json`` reports
  against the committed perf baseline (the CI regression gate);
- ``lint [PATH ...]``       run the reprolint static analyzer
  (determinism, vector-clock aliasing, protocol contract, obs gating,
  cross-node isolation; see docs/static-analysis.md).

Examples::

    repro-dsm artifacts table2 fig3
    repro-dsm run -p optp -n 5 --ops 20 --seed 3 --diagram
    repro-dsm compare -n 6 --seeds 0 1 2
    repro-dsm sweep processes
    repro-dsm scenario fig3 -p anbkh
    repro-dsm critpath fig3 --json critpath.json
    repro-dsm check -p optp -w h1 pair chain
    repro-dsm check -p anbkh -w fig3 --stats-out verdicts.json
    repro-dsm check --replay witness.json
    repro-dsm bench compare --json bench_compare.json
    repro-dsm lint --format json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import check_run
from repro.analysis.metrics import RunMetrics, comparison_table
from repro.paperfigs import (
    ARTIFACTS,
    compare_on_schedule,
    render_sweep,
    sweep_latency_spread,
    sweep_processes,
    sweep_write_fraction,
    sweep_zipf,
)
from repro.paperfigs.render import sequence_at
from repro.paperfigs.spacetime import render_spacetime
from repro.protocols import PROTOCOLS
from repro.sim import SeededLatency, run_schedule
from repro.workloads import ALL_SCENARIOS, WorkloadConfig, random_schedule

SWEEPS = {
    "processes": sweep_processes,
    "write-fraction": sweep_write_fraction,
    "latency": sweep_latency_spread,
    "zipf": sweep_zipf,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dsm",
        description="Causally consistent DSM reproduction "
        "(Baldoni-Milani-Tucci, IPPS 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_art = sub.add_parser("artifacts", help="print paper tables/figures")
    p_art.add_argument("names", nargs="*", metavar="NAME",
                       help=f"subset of {list(ARTIFACTS)} (default: all)")

    p_run = sub.add_parser("run", help="run + verify one protocol")
    p_run.add_argument("-p", "--protocol", default="optp",
                       choices=sorted(PROTOCOLS))
    p_run.add_argument("-n", "--processes", type=int, default=4)
    p_run.add_argument("--ops", type=int, default=15,
                       help="operations per process")
    p_run.add_argument("--variables", type=int, default=4)
    p_run.add_argument("--write-fraction", type=float, default=0.6)
    p_run.add_argument("--zipf", type=float, default=0.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--latency-mean", type=float, default=2.0,
                       help="exponential latency mean")
    p_run.add_argument("--fifo", action="store_true",
                       help="FIFO channels (default: non-FIFO)")
    p_run.add_argument("--diagram", action="store_true",
                       help="print the space-time diagram")
    p_run.add_argument("--dump-trace", metavar="PATH",
                       help="write the run's trace as JSON-lines to PATH")
    p_run.add_argument("--trace-out", metavar="PATH",
                       help="write a Perfetto/Chrome trace_event JSON "
                       "rendering of the run (enables observability)")
    p_run.add_argument("--metrics-out", metavar="PATH",
                       help="write the run's metrics-registry snapshot "
                       "as JSON (enables observability)")

    p_cmp = sub.add_parser("compare", help="all protocols, one schedule")
    p_cmp.add_argument("-n", "--processes", type=int, default=5)
    p_cmp.add_argument("--ops", type=int, default=15)
    p_cmp.add_argument("--write-fraction", type=float, default=0.6)
    p_cmp.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_cmp.add_argument("--protocols", nargs="+",
                       default=sorted(PROTOCOLS), choices=sorted(PROTOCOLS))

    p_sweep = sub.add_parser("sweep", help="delay sweeps (Q1/Q3)")
    p_sweep.add_argument("axis", choices=sorted(SWEEPS))
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_sweep.add_argument("--format", choices=["table", "csv", "json"],
                         default="table")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (output is byte-identical "
                         "to --jobs 1; see docs/performance.md)")
    p_sweep.add_argument("--cache-dir", default="artifacts/runcache",
                         metavar="DIR",
                         help="content-addressed result cache root "
                         "(default: %(default)s)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="skip the result cache (neither read nor "
                         "written)")
    p_sweep.add_argument("--stats-out", metavar="PATH",
                         help="write runner stats (jobs, cache hits/misses, "
                         "sim seconds) as JSON to PATH")
    p_sweep.add_argument("--progress", action="store_true",
                         help="stream live progress snapshots (completions, "
                         "cache hit rate) to stderr; results unchanged")

    p_replay = sub.add_parser(
        "replay", help="re-audit an archived trace (JSON-lines dump)"
    )
    p_replay.add_argument("path", help="trace file from run --dump-trace")
    p_replay.add_argument("--diagram", action="store_true")

    p_rep = sub.add_parser("report", help="full reproduction report (markdown)")
    p_rep.add_argument("--out", metavar="PATH",
                       help="write to PATH instead of stdout")
    p_rep.add_argument("--quick", action="store_true",
                       help="smaller sweeps (fast sanity run)")
    p_rep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the report's sweeps")
    p_rep.add_argument("--cache-dir", default="artifacts/runcache",
                       metavar="DIR", help="sweep result cache root")
    p_rep.add_argument("--no-cache", action="store_true",
                       help="skip the sweep result cache")

    p_obs = sub.add_parser(
        "obs", help="summarize a saved metrics file (run --metrics-out)"
    )
    p_obs.add_argument("path", help="metrics JSON from run --metrics-out")

    p_scen = sub.add_parser("scenario", help="run an H1 figure scenario")
    p_scen.add_argument("name", choices=sorted(ALL_SCENARIOS))
    p_scen.add_argument("-p", "--protocol", default="optp",
                        choices=sorted(PROTOCOLS))
    p_scen.add_argument("--diagram", action="store_true")

    p_crit = sub.add_parser(
        "critpath",
        help="critical-path profile of an H1 scenario's write delays",
    )
    p_crit.add_argument("scenario", nargs="?", default="fig3",
                        choices=sorted(ALL_SCENARIOS),
                        help="H1 scenario (default: fig3, the "
                        "false-causality run)")
    p_crit.add_argument("--protocols", nargs="+",
                        default=["optp", "anbkh"],
                        choices=sorted(PROTOCOLS),
                        help="protocols to profile (default: optp anbkh)")
    p_crit.add_argument("--top", type=int, default=5,
                        help="blocking edges to list per protocol")
    p_crit.add_argument("--json", metavar="PATH",
                        help="write the per-protocol reports as JSON")

    p_chk = sub.add_parser(
        "check", help="model-check a protocol over all interleavings"
    )
    p_chk.add_argument("-p", "--protocol", default="optp",
                       choices=sorted(PROTOCOLS))
    p_chk.add_argument("-w", "--workload", nargs="+", default=["h1"],
                       metavar="NAME",
                       help="canned checker workload(s); see "
                       "docs/model-checking.md (default: h1)")
    p_chk.add_argument("--faults", default="none", metavar="SPEC",
                       help="fault adapters: none | dup:N,drop:N"
                       "[,noretransmit][,dedup|nodedup],crash[:N]"
                       "[,norecover][,snap:N][,losetail:N] -- crash "
                       "explores process crashes; recovery replays the "
                       "durable snapshot+WAL (losetail:N injects the "
                       "BrokenRecovery mutation) (default: %(default)s)")
    p_chk.add_argument("--mode", choices=["exhaustive", "walk"],
                       default="exhaustive")
    p_chk.add_argument("--max-states", type=int, default=200_000)
    p_chk.add_argument("--max-depth", type=int, default=80)
    p_chk.add_argument("--walks", type=int, default=64,
                       help="random walks in --mode walk")
    p_chk.add_argument("--seed", type=int, default=0,
                       help="walk-mode RNG seed")
    p_chk.add_argument("--timer-budget", type=int, default=3,
                       help="timer firings per process (timer-driven "
                       "protocols)")
    p_chk.add_argument("--expect-optimal", choices=["auto", "yes", "no"],
                       default="auto",
                       help="treat unnecessary delays as violations "
                       "(auto: yes for Theorem-4 protocols)")
    p_chk.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes across workloads")
    p_chk.add_argument("--cache-dir", default="artifacts/runcache",
                       metavar="DIR", help="verdict cache root "
                       "(default: %(default)s)")
    p_chk.add_argument("--no-cache", action="store_true",
                       help="skip the verdict cache")
    p_chk.add_argument("--stats-out", metavar="PATH",
                       help="write verdicts + runner stats as JSON")
    p_chk.add_argument("--witness-out", metavar="PATH",
                       help="write the first violation as a replayable "
                       "witness (minimized choice path)")
    p_chk.add_argument("--replay", metavar="WITNESS",
                       help="replay a witness file instead of checking; "
                       "exits 0 iff the recorded run reproduces "
                       "byte-identically")
    p_chk.add_argument("--progress", action="store_true",
                       help="stream live progress snapshots (states/s, "
                       "prune ratio, shard completion) to stderr; the "
                       "verdict is unchanged")

    p_bench = sub.add_parser(
        "bench", help="benchmark artifact utilities"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bcmp = bench_sub.add_parser(
        "compare",
        help="diff current BENCH_*.json reports against the committed "
        "baseline (exit 1 on regression)",
    )
    p_bcmp.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline document (default: "
                        "artifacts/bench_baseline.json)")
    p_bcmp.add_argument("--bench-dir", default=".", metavar="DIR",
                        help="directory holding the BENCH_*.json reports "
                        "(default: the repo root, where the benchmark "
                        "suites write them)")
    p_bcmp.add_argument("--json", metavar="PATH",
                        help="write the per-metric verdicts as JSON")
    p_bcmp.add_argument("--update", action="store_true",
                        help="rewrite the baseline's recorded values from "
                        "the current reports instead of comparing")

    p_lint = sub.add_parser(
        "lint", help="static analysis (determinism & protocol contract)"
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories (default: the "
                        "installed repro package)")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument("--select", metavar="CODES",
                        help="run only these rule codes, comma-separated "
                        "(e.g. RL001,RL003)")
    p_lint.add_argument("--ignore", metavar="CODES",
                        help="skip these rule codes, comma-separated")
    p_lint.add_argument("--catalog", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.add_argument("--flow", action="store_true",
                        help="enable the interprocedural flow rules "
                        "(RL101-RL104: payload escape, VC monotonicity, "
                        "transitive nondeterminism, transitive hot-path "
                        "allocation)")

    p_srv = sub.add_parser(
        "serve",
        help="boot a multi-process causally consistent KV deployment",
    )
    p_srv.add_argument("-p", "--protocol", default="optp",
                       help="protocol to serve (must support live serving; "
                       "see repro.serve.SERVABLE_PROTOCOLS)")
    p_srv.add_argument("--group-size", type=int, default=3, metavar="N",
                       help="replicas per shard group (default 3)")
    p_srv.add_argument("--shards", type=int, default=1,
                       help="replica groups the key space is sharded over")
    p_srv.add_argument("--rundir", required=True, metavar="DIR",
                       help="run directory (sockets, cluster.json, stats; "
                       "a recorded run's WALs under DIR/wal)")
    p_srv.add_argument("--transport", choices=["unix", "tcp"],
                       default="unix")
    p_srv.add_argument("--port-base", type=int, default=7400,
                       help="first TCP port (tcp transport only)")
    p_srv.add_argument("--duration", type=float, default=0.0,
                       help="one-shot mode: drive the built-in load "
                       "generator for this many seconds, then drain and "
                       "stop (0 = serve until interrupted)")
    p_srv.add_argument("--workers", type=int, default=1,
                       help="load-generator processes (one-shot mode)")
    p_srv.add_argument("--batch", type=int, default=64,
                       help="ops per REQUEST frame")
    p_srv.add_argument("--pipeline", type=int, default=4,
                       help="concurrent sessions per load worker")
    p_srv.add_argument("--read-fraction", type=float, default=0.9)
    p_srv.add_argument("--keys", type=int, default=64)
    p_srv.add_argument("--rate", type=float, default=0.0,
                       help="target ops/s per worker (0 = saturate)")
    p_srv.add_argument("--wal-dir", metavar="DIR",
                       help="make replicas durable: journal every op to "
                       "a write-ahead log + snapshots under DIR; a "
                       "restarted replica recovers its pre-crash state "
                       "(docs/fault-tolerance.md)")
    p_srv.add_argument("--chaos", action="store_true",
                       help="one-shot kill-and-recover drill: SIGKILL "
                       "one replica mid-load, restart it, verify "
                       "recovery (implies --wal-dir under the rundir; "
                       "needs --duration > 0)")
    p_srv.add_argument("--kill-after", type=float, default=1.0,
                       help="chaos: seconds of load before the kill")
    p_srv.add_argument("--down-time", type=float, default=0.5,
                       help="chaos: seconds the victim stays down")
    p_srv.add_argument("--record", action="store_true",
                       help="keep the run for conformance replay: every "
                       "replica is durable and its WAL (under --wal-dir, "
                       "else RUNDIR/wal) is the recording; costs an "
                       "fsync per response")
    p_srv.add_argument("--verify", action="store_true",
                       help="after the run, replay each replica's WAL, "
                       "merge the group's events and run the paper's "
                       "checkers (implies --record)")
    p_srv.add_argument("--json", metavar="PATH", dest="json_out",
                       help="write the full run report as JSON")
    p_srv.add_argument("--trace-out", metavar="PATH",
                       help="write a Perfetto/Chrome trace of group 0's "
                       "merged, WAL-replayed events (implies --verify)")

    p_lg = sub.add_parser(
        "loadgen",
        help="drive load against an already-running serve deployment",
    )
    p_lg.add_argument("--spec", required=True, metavar="PATH",
                      help="cluster.json written by `repro-dsm serve`")
    p_lg.add_argument("--duration", type=float, default=3.0)
    p_lg.add_argument("--workers", type=int, default=1)
    p_lg.add_argument("--batch", type=int, default=64)
    p_lg.add_argument("--pipeline", type=int, default=4)
    p_lg.add_argument("--read-fraction", type=float, default=0.9)
    p_lg.add_argument("--keys", type=int, default=64)
    p_lg.add_argument("--rate", type=float, default=0.0,
                      help="target ops/s per worker (0 = saturate)")
    p_lg.add_argument("--json", metavar="PATH", dest="json_out",
                      help="write the summary as JSON")

    return parser


def cmd_artifacts(args: argparse.Namespace) -> int:
    names = args.names or list(ARTIFACTS)
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        print(f"unknown artifacts {unknown}; known: {list(ARTIFACTS)}",
              file=sys.stderr)
        return 2
    for name in names:
        print("=" * 72)
        print(ARTIFACTS[name]())
        print()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = WorkloadConfig(
        n_processes=args.processes,
        ops_per_process=args.ops,
        n_variables=args.variables,
        write_fraction=args.write_fraction,
        zipf_s=args.zipf,
        seed=args.seed,
    )
    obs = None
    if args.trace_out or args.metrics_out:
        from repro.obs import Obs

        obs = Obs.recording()
    result = run_schedule(
        args.protocol,
        args.processes,
        random_schedule(cfg),
        latency=SeededLatency(args.seed, dist="exponential",
                              mean=args.latency_mean),
        fifo=args.fifo,
        record_state=True,
        obs=obs,
    )
    report = check_run(result)
    print(report.summary())
    metrics = RunMetrics.of(result, report)
    print(comparison_table([metrics]))
    if args.diagram:
        print()
        print(render_spacetime(result.trace, result.history))
    if args.dump_trace:
        from pathlib import Path

        from repro.sim.serialize import trace_to_jsonl

        Path(args.dump_trace).write_text(trace_to_jsonl(result.trace))
        print(f"trace written to {args.dump_trace}")
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace_out, result.trace, result.spans,
                           protocol=args.protocol)
        print(f"Perfetto trace written to {args.trace_out} "
              "(open in ui.perfetto.dev)")
    if args.metrics_out:
        from pathlib import Path

        Path(args.metrics_out).write_text(obs.registry.to_json(
            protocol=args.protocol,
            n_processes=args.processes,
            duration=result.duration,
            seed=args.seed,
        ))
        print(f"metrics written to {args.metrics_out}")
    return 0 if report.ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    all_metrics = []
    for seed in args.seeds:
        cfg = WorkloadConfig(
            n_processes=args.processes,
            ops_per_process=args.ops,
            write_fraction=args.write_fraction,
            seed=seed,
        )
        all_metrics += compare_on_schedule(
            random_schedule(cfg),
            args.processes,
            protocols=args.protocols,
            latency_seed=seed,
        )
    print(comparison_table(
        all_metrics,
        title=f"n={args.processes} ops={args.ops} seeds={args.seeds}",
    ))
    return 0


def _make_runner(args: argparse.Namespace, progress=None):
    """A SweepRunner configured from --jobs/--cache-dir/--no-cache."""
    from repro.sweep import RunCache, SweepRunner

    cache = None if args.no_cache else RunCache(args.cache_dir)
    return SweepRunner(jobs=args.jobs, cache=cache, progress=progress)


def cmd_sweep(args: argparse.Namespace) -> int:
    progress = None
    if getattr(args, "progress", False):
        from repro.obs import ProgressSink

        progress = ProgressSink(label=f"sweep:{args.axis}",
                                rate_fields=("done",))
    runner = _make_runner(args, progress=progress)
    rows = SWEEPS[args.axis](seeds=tuple(args.seeds), runner=runner)
    if progress is not None:
        progress.close()
    stats = runner.stats.to_dict()
    print(
        f"sweep: jobs={stats['jobs']} runs={stats['runs']} "
        f"cache_hits={stats['cache_hits']} "
        f"cache_misses={stats['cache_misses']} "
        f"sim_seconds={stats['sim_seconds']}",
        file=sys.stderr,
    )
    if args.stats_out:
        import json
        from pathlib import Path

        doc = dict(stats)
        if progress is not None:
            doc["progress"] = progress.snapshot()
        Path(args.stats_out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.format == "csv":
        from repro.analysis.export import sweep_to_csv

        print(sweep_to_csv(rows), end="")
    elif args.format == "json":
        from repro.analysis.export import sweep_to_json

        print(sweep_to_json(rows))
    else:
        print(render_sweep(rows, title=f"sweep: {args.axis}"))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    scen = ALL_SCENARIOS[args.name]()
    result = run_schedule(args.protocol, 3, scen.schedule,
                          latency=scen.latency, record_state=True)
    report = check_run(result)
    print(f"{scen.name}: {scen.description}")
    print(f"protocol: {args.protocol}")
    print()
    print("sequence at p3:")
    print("  " + sequence_at(result.trace, result.history, 2))
    print()
    print(report.summary())
    for audit in report.unnecessary_delays:
        print(f"  UNNECESSARY delay of {audit.wid} at p{audit.process + 1}")
    if args.diagram:
        print()
        print(render_spacetime(result.trace, result.history))
    return 0 if report.ok else 1


def cmd_critpath(args: argparse.Namespace) -> int:
    """Profile where an H1 scenario's write delays land on the clock.

    Runs each protocol on the same scenario with span recording, then
    prints blocked-time attribution, the Theorem-4 necessity split, and
    the critical dependency chain.  On ``fig3`` (the false-causality
    run) ANBKH attributes unnecessary blocked time while OptP attributes
    exactly zero -- the paper's optimality claim in milliseconds.
    """
    import json
    from pathlib import Path

    from repro.obs import Obs, analyze_critical_paths

    scen = ALL_SCENARIOS[args.scenario]()
    print(f"{scen.name}: {scen.description}")
    print()
    docs = {}
    for protocol in args.protocols:
        obs = Obs.recording()
        result = run_schedule(protocol, 3, scen.schedule,
                              latency=scen.latency, record_state=True,
                              obs=obs)
        report = analyze_critical_paths(result)
        print(report.render(top=args.top))
        print()
        docs[protocol] = report.to_dict()
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"scenario": scen.name, "reports": docs},
            indent=2, sort_keys=True) + "\n")
        print(f"critpath reports written to {args.json}", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``bench compare``: exit 0 when every metric holds, 1 on any
    regression, 2 when the baseline itself is unreadable."""
    import json
    from pathlib import Path

    from repro.obs import compare_benchmarks, load_baseline, update_baseline
    from repro.obs.benchcmp import DEFAULT_BASELINE

    baseline_path = Path(args.baseline or DEFAULT_BASELINE)
    try:
        baseline = load_baseline(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return 2
    if args.update:
        refreshed = update_baseline(baseline, Path(args.bench_dir))
        baseline_path.write_text(
            json.dumps(refreshed, indent=2, sort_keys=True) + "\n")
        print(f"baseline values refreshed from {args.bench_dir} -> "
              f"{baseline_path} (review the diff before committing)")
        return 0
    comparison = compare_benchmarks(baseline, Path(args.bench_dir))
    print(comparison.render())
    if args.json:
        Path(args.json).write_text(
            json.dumps(comparison.to_dict(), indent=2, sort_keys=True)
            + "\n")
    return 0 if comparison.ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run the stats-independent checkers on an archived trace:
    legality, safety, the delay audit, session guarantees, and causal
    closure at the full cut."""
    from pathlib import Path

    from repro.analysis.checker import audit_delays, check_safety
    from repro.analysis.cuts import closure_violations, full_cut
    from repro.analysis.sessions import check_sessions
    from repro.model.legality import check_causal_consistency
    from repro.sim.result import RunResult
    from repro.sim.serialize import trace_from_jsonl

    trace = trace_from_jsonl(Path(args.path).read_text())
    result = RunResult(
        protocol_name=f"replay:{args.path}",
        n_processes=trace.n_processes,
        trace=trace,
        duration=trace.events[-1].time if len(trace) else 0.0,
        messages_sent=0,
        bytes_estimate=0,
        stores=[{} for _ in range(trace.n_processes)],
        protocol_stats=[{} for _ in range(trace.n_processes)],
    )
    history = result.history
    legality = check_causal_consistency(history)
    safety = check_safety(result)
    audits = audit_delays(result)
    unnecessary = [a for a in audits if not a.necessary]
    sessions = check_sessions(history)
    closure = closure_violations(trace, history, full_cut(trace))
    print(f"events: {len(trace)}  processes: {trace.n_processes}  "
          f"writes: {result.writes_issued}")
    print(f"legality: {legality.summary()}")
    print(f"safety:   {'ok' if not safety else safety}")
    print(f"delays:   {len(audits)} (unnecessary: {len(unnecessary)})")
    print(f"sessions: {sessions.summary()}")
    print(f"closure:  {'ok' if not closure else closure}")
    if args.diagram:
        print()
        print(render_spacetime(trace, history))
    ok = bool(legality) and not safety and not closure and sessions.ok
    return 0 if ok else 1


def cmd_obs(args: argparse.Namespace) -> int:
    """Summarize a saved metrics file (``run --metrics-out``)."""
    import json
    from pathlib import Path

    from repro.obs import summarize_metrics

    try:
        doc = json.loads(Path(args.path).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics file {args.path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict) or "metrics" not in doc:
        print(f"{args.path} is not a metrics file (missing 'metrics' key)",
              file=sys.stderr)
        return 2
    print(summarize_metrics(doc))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.paperfigs.report import build_report

    text = build_report(quick=args.quick, runner=_make_runner(args))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Model-check: exit 0 when every config is clean, 1 on violations,
    2 on bad usage.  ``--replay`` instead re-executes a witness and
    exits 0 iff it reproduces byte-identically."""
    import json
    from dataclasses import replace
    from pathlib import Path

    from repro.mck import (
        CheckConfig,
        build_witness,
        check_sharded,
        load_witness,
        minimize_witness,
        parse_faults,
        replay_witness,
        run_checks,
        workload_by_name,
    )

    if args.replay:
        try:
            doc = load_witness(args.replay)
            outcome, problems = replay_witness(doc)
        except (OSError, ValueError) as exc:
            print(f"cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 2
        spec = doc["config"]
        print(f"witness: {spec['protocol']}/{spec['workload']['name']} "
              f"choices={len(doc['choices'])} status={outcome.status}")
        for finding in outcome.findings:
            print(f"  {finding}")
        if problems:
            print("NOT reproduced:")
            for p in problems:
                print(f"  {p}")
            return 1
        print("reproduced byte-identically")
        return 0

    try:
        faults = parse_faults(args.faults)
        workloads = [workload_by_name(name) for name in args.workload]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    expect = {"auto": None, "yes": True, "no": False}[args.expect_optimal]
    configs = [
        CheckConfig(
            protocol=args.protocol,
            workload=w,
            faults=faults,
            expect_optimal=expect,
            mode=args.mode,
            max_states=args.max_states,
            max_depth=args.max_depth,
            walks=args.walks,
            seed=args.seed,
            timer_budget=args.timer_budget,
        )
        for w in workloads
    ]
    cache = None
    if not args.no_cache:
        from repro.sweep import RunCache

        cache = RunCache(args.cache_dir)
    progress = None
    if args.progress:
        from repro.obs import ProgressSink

        progress = ProgressSink(label=f"check:{args.protocol}")
    if args.jobs > 1 and len(configs) == 1:
        # One big check: shard its DFS across the pool instead of
        # leaving jobs-1 workers idle (repro.mck.shard; verdict is
        # exactly the serial one).
        result, stats = check_sharded(configs[0], jobs=args.jobs,
                                      cache=cache, progress=progress)
        results = [result]
    else:
        results, stats = run_checks(configs, jobs=args.jobs, cache=cache,
                                    progress=progress)
    if progress is not None:
        progress.close()
    failed = False
    for config, r in zip(configs, results):
        verdict = "OK" if r.ok else f"VIOLATED ({r.violations_seen})"
        # wall time survives only on the inline path; decoded results
        # (cache hits, pool workers) aggregate it in stats.sim_seconds.
        rate = (f" ({r.states_per_sec:,.0f} states/s)"
                if r.wall > 0 else "")
        print(f"{r.protocol_name}/{r.workload_name} mode={r.mode} "
              f"faults={args.faults}: {verdict}  states={r.states} "
              f"transitions={r.transitions} "
              f"terminals={r.terminals} prunes={r.prunes} "
              f"unnecessary_delays={r.unnecessary_delays}"
              f"{' LIMIT-HIT' if r.state_limit_hit else ''}{rate}")
        for v in r.violations[:5]:
            print(f"  {v.finding}  [{len(v.choices)} choices]")
        if len(r.violations) > 5:
            print(f"  ... and {len(r.violations) - 5} more recorded")
        if not r.ok:
            failed = True
            if args.witness_out:
                violation = r.violations[0]
                budget = 200_000
                shortest = minimize_witness(config, list(violation.choices),
                                            max_states=budget)
                if shortest is not None:
                    violation = replace(violation, choices=tuple(shortest))
                doc = build_witness(config, violation, minimize=False)
                save = Path(args.witness_out)
                save.write_text(json.dumps(doc, sort_keys=True, indent=1)
                                + "\n")
                how = ("minimized" if shortest is not None else
                       f"not minimized: the {budget}-state budget ran out")
                print(f"  witness written to {args.witness_out} "
                      f"({len(doc['choices'])} choices, {how})")
                args.witness_out = None  # first violation only
    if args.stats_out:
        doc = {
            "checks": [r.verdict_dict() for r in results],
            "stats": stats.to_dict(),
        }
        if progress is not None:
            doc["progress"] = progress.snapshot()
        Path(args.stats_out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"verdicts written to {args.stats_out}", file=sys.stderr)
    return 1 if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint: exit 0 when clean, 1 on findings, 2 on bad usage."""
    from pathlib import Path

    from repro.lint import lint_paths, rule_catalog

    if args.catalog:
        for rule in rule_catalog():
            print(f"{rule.code}  {rule.name:<22} {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        import repro

        paths = [Path(repro.__file__).parent]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"no such path(s): {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    def codes(raw):
        return [c for c in raw.split(",") if c] if raw else None

    try:
        report = lint_paths(paths, select=codes(args.select),
                            ignore=codes(args.ignore), flow=args.flow)
    except ValueError as exc:  # unknown rule codes
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _print_load_summary(load: dict) -> None:
    print(f"ops          {load['ops']}  "
          f"({load['reads']} reads / {load['writes']} writes, "
          f"{load['batches']} batches)")
    print(f"elapsed      {load['elapsed']}s")
    print(f"throughput   {load['ops_per_sec']} ops/s")
    print(f"read  p50/p99   {load['read_p50_ms']} / "
          f"{load['read_p99_ms']} ms")
    print(f"write p50/p99   {load['write_p50_ms']} / "
          f"{load['write_p99_ms']} ms")


def cmd_serve(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serve.harness import ServedCluster, serve_and_load, serve_chaos
    from repro.serve.loadgen import LoadgenConfig
    from repro.serve.server import SERVABLE_PROTOCOLS

    if args.protocol not in SERVABLE_PROTOCOLS:
        print(f"protocol {args.protocol!r} is not servable; pick one of "
              f"{sorted(SERVABLE_PROTOCOLS)}", file=sys.stderr)
        return 2
    verify = args.verify or bool(args.trace_out)
    record = args.record or verify
    rundir = Path(args.rundir)
    wal_dir = Path(args.wal_dir) if args.wal_dir else None
    cfg = LoadgenConfig(
        duration=args.duration, batch=args.batch, pipeline=args.pipeline,
        read_fraction=args.read_fraction, keys=args.keys, rate=args.rate,
    )

    if args.chaos:
        if args.duration <= 0:
            print("--chaos needs --duration > 0", file=sys.stderr)
            return 2
        report = serve_chaos(
            args.protocol, group_size=args.group_size, rundir=rundir,
            duration=args.duration, kill_after=args.kill_after,
            down_time=args.down_time, workers=args.workers,
            record=record, verify=verify, transport=args.transport,
            port_base=args.port_base, loadgen=cfg,
        )
        _print_load_summary(report["load"])
        print(f"victim g0n{report['victim']}: recovered="
              f"{report['recovered']} recovery={report['recovery_us']}us "
              f"wal_records={report['wal_records']} "
              f"restart_wall={report['restart_wall_s']}s")
    elif args.duration > 0:
        report = serve_and_load(
            args.protocol, group_size=args.group_size, shards=args.shards,
            rundir=rundir, duration=args.duration, workers=args.workers,
            record=record, verify=verify, transport=args.transport,
            port_base=args.port_base, loadgen=cfg, wal_dir=wal_dir,
        )
        _print_load_summary(report["load"])
    else:
        cluster = ServedCluster.start(
            args.protocol, group_size=args.group_size, shards=args.shards,
            rundir=rundir, record=record, transport=args.transport,
            port_base=args.port_base, wal_dir=wal_dir,
        )
        print(f"serving {args.protocol}: {args.shards} shard(s) x "
              f"{args.group_size} replicas (spec: {rundir / 'cluster.json'})")
        for g in range(cluster.spec.n_shards):
            for i in range(cluster.spec.group_size):
                print(f"  g{g}n{i}  {cluster.spec.endpoint(g, i)}")
        print("Ctrl-C to drain and stop.")
        try:
            import time

            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            try:
                cluster.quiesce()
                cluster.stop()
            finally:
                cluster.kill()
        report = {
            "protocol": args.protocol,
            "group_size": args.group_size,
            "shards": args.shards,
            "node_stats": [s["stats"] for s in cluster.statuses],
        }
        if verify:
            report["conformance"] = cluster.verify()

    if verify:
        conf = report["conformance"]
        print(f"conformance  {'OK' if conf['ok'] else 'FAILED'} "
              f"({len(conf['groups'])} group(s) replayed)")
    if args.trace_out:
        from repro.obs.export import write_chrome_trace
        from repro.sim.serialize import trace_from_jsonl

        trace = trace_from_jsonl(
            Path(report["conformance"]["groups"][0]["trace_path"]).read_text()
        )
        write_chrome_trace(args.trace_out, trace, protocol=args.protocol)
        print(f"perfetto trace -> {args.trace_out}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report, indent=2,
                                                  default=str))
    return 0 if (not verify or report["conformance"]["ok"]) else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serve.harness import drive_load
    from repro.serve.loadgen import LoadgenConfig
    from repro.serve.shard import ClusterSpec

    spec_path = Path(args.spec)
    if not spec_path.exists():
        print(f"no such spec: {spec_path}", file=sys.stderr)
        return 2
    spec = ClusterSpec.load(spec_path)
    cfg = LoadgenConfig(
        duration=args.duration, batch=args.batch, pipeline=args.pipeline,
        read_fraction=args.read_fraction, keys=args.keys, rate=args.rate,
    )
    load = drive_load(spec, cfg, workers=args.workers,
                      rundir=spec_path.parent)
    _print_load_summary(load)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(load, indent=2))
    return 0


COMMANDS = {
    "artifacts": cmd_artifacts,
    "run": cmd_run,
    "compare": cmd_compare,
    "obs": cmd_obs,
    "replay": cmd_replay,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "scenario": cmd_scenario,
    "critpath": cmd_critpath,
    "check": cmd_check,
    "bench": cmd_bench,
    "lint": cmd_lint,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
