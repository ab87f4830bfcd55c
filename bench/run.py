"""Run one workload of the repository benchmark.

    python3 bench/run.py --workload kv-update-heavy --seed 1 \\
        --seconds 10 --trace 0

Boots a real 3-replica OptP deployment (one OS process per replica,
unix sockets), drives it from this process over two client connections,
checks every answer, prints every metric by name with its unit, and ends
with one JSON line.  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer ones (a second, traced deployment; see
``bench/README.md``).  ``--repeat R`` runs the whole set R times,
``--selftest`` runs ``bench/test_workloads.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench/run.py: no src/repro next to bench/: nothing to measure")
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.serve.codec import OP_READ, OP_WRITE  # noqa: E402

from bench import ceilings, tracing  # noqa: E402
from bench.deploy import (  # noqa: E402
    Deployment, cpu_seconds, reap_children, rss_bytes, steal_ticks)
from bench.load import HostProbe, new_latencies, percentile  # noqa: E402
from bench.workloads import (  # noqa: E402
    SEGMENTS, VALUE_BYTES, WORKLOADS, build_plan, scaled_counts)

#: Unix socket paths are limited to ~100 bytes, so deployments live in a
#: short *relative* directory under the checkout (the cwd of every
#: process the benchmark starts).
WORK = Path(".bench_work")
SETUPS = 3            #: set-ups timed per run; ``setup_s`` is their median
LATENCY_BLOCKS = 20   #: the single phase is cut into this many time blocks
#: The recorded conformance deployment is small (about 450 ops with its
#: preload and warm-up): the legality checker builds an ops x ops x ops
#: matrix, and 2,000 ops would need 8 GB.
RECORDED_OPS = 192
RECORDED_KEYS = 32

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("server_cpu_us_per_op", "us"),
    ("read_p50_ms", "ms"), ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"), ("write_p90_ms", "ms"),
)

#: Every per-layer metric: (name, unit).  BENCHMARK.json lists the same
#: names (checked by the self-test); README.md says which end-to-end
#: metric each should move.
PER_LAYER = (
    ("serve.client.encode_request_us_per_op", "us"),
    ("serve.client.decode_response_us_per_op", "us"),
    ("serve.client.cpu_us_per_op", "us"),
    ("serve.client.read_p99_ms", "ms"),
    ("serve.client.write_p99_ms", "ms"),
    ("serve.codec.decode_request_us_per_op", "us"),
    ("serve.codec.encode_response_us_per_op", "us"),
    ("serve.codec.request_bytes_per_op", "bytes"),
    ("serve.codec.response_bytes_per_op", "bytes"),
    ("serve.codec.encode_message_us_per_msg", "us"),
    ("serve.codec.decode_message_us_per_msg", "us"),
    ("serve.codec.peer_bytes_per_write", "bytes"),
    ("serve.codec.write_frame_us_per_frame", "us"),
    ("serve.codec.read_frame_wait_us_per_frame", "us"),
    ("serve.codec.busy_us_per_op", "us"),
    ("sim.node.do_read_us", "us"),
    ("sim.node.do_write_us", "us"),
    ("sim.node.receive_us", "us"),
    ("sim.node.write_delays_per_kwrite", "count"),
    ("sim.node.busy_us_per_op", "us"),
    ("core.optp.read_us", "us"),
    ("core.optp.write_us", "us"),
    ("core.optp.missing_deps_us", "us"),
    ("core.optp.classify_us", "us"),
    ("core.optp.apply_update_us", "us"),
    ("core.optp.busy_us_per_op", "us"),
    ("serve.server.msgs_per_peer_batch", "count"),
    ("serve.server.peer_batches_per_kwrite", "count"),
    ("serve.server.read_wait_ratio", "ratio"),
    ("serve.server.request_self_us_per_op", "us"),
    ("serve.server.unaccounted_us_per_op", "us"),
    ("serve.server.traced_cpu_us_per_op", "us"),
    ("serve.server.rss_mb_end", "MB"),
    ("serve.server.rss_growth_bytes_per_write", "bytes"),
    ("durability.wal.encode_record_us_per_record", "us"),
    ("durability.wal.append_us_per_record", "us"),
    ("durability.wal.sync_us_per_call", "us"),
    ("durability.wal.records_per_fsync", "count"),
    ("durability.wal.fsyncs_per_kop", "count"),
    ("durability.wal.bytes_per_user_byte", "ratio"),
    ("durability.busy_us_per_op", "us"),
    ("durability.snapshot.count", "count"),
    ("durability.snapshot.mean_ms", "ms"),
    ("durability.snapshot.last_over_first", "ratio"),
    ("durability.snapshot.stall_share", "ratio"),
    ("durability.recovery.recovery_ms", "ms"),
    ("durability.recovery.restart_wall_s", "s"),
    ("durability.recovery.resync_s", "s"),
    ("serve.harness.boot_s", "s"),
    ("serve.harness.quiesce_s", "s"),
    ("serve.harness.stop_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("serve.codec.ceiling_request_ops_per_s", "1/s"),
    ("serve.codec.ceiling_message_msgs_per_s", "1/s"),
    ("serve.codec.ceiling_mb_per_s", "MB/s"),
    ("serve.codec.ceiling_echo_frames_per_s", "1/s"),
    ("sim.node.ceiling_ops_per_s", "1/s"),
    ("durability.wal.ceiling_append_records_per_s", "1/s"),
    ("durability.wal.ceiling_append_fsync_records_per_s", "1/s"),
    ("durability.recovery.ceiling_replay_records_per_s", "1/s"),
)

#: Which layer's busy time each traced span counts towards.
BUSY_LAYERS = {
    "serve.codec": ("serve.codec.decode_request", "serve.codec.encode_response",
                    "serve.codec.encode_message_into",
                    "serve.codec.decode_message_from",
                    "serve.codec.write_frame"),
    "sim.node": ("sim.node.do_read", "sim.node.do_write", "sim.node.receive"),
    "core.optp": ("core.optp.read", "core.optp.write", "core.optp.missing_deps",
                  "core.optp.classify", "core.optp.apply_update"),
    "durability": ("durability.wal.encode_record", "durability.wal.append",
                   "durability.wal.sync", "durability.snapshot.snapshot_node",
                   "durability.snapshot.encode_snapshot",
                   "durability.snapshot.write_framed_file"),
}


def exit_code(failed: int) -> int:
    """A run with a failed op or a failed check exits non-zero."""
    return 0 if failed == 0 else 1


def faster_half(segments: list) -> list:
    """The K/2 segments that took the least time.

    Every disturbance on a shared box (a stolen or slowed vCPU, another
    tenant on the sibling thread) makes a segment slower and none makes
    it faster, so the faster half estimates what the code costs and the
    slower half what the neighbours were doing."""
    return sorted(segments)[:max(1, len(segments) // 2)]


def quieter_half(values: list) -> float:
    """Mean of the lower half of per-block latency percentiles: the same
    rule as :func:`faster_half`, for latencies."""
    return statistics.fmean(sorted(values)[:max(1, len(values) // 2)])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg()[0],
        "steal_ticks_start": steal_ticks(),
    }


def _sum_stats(statuses: list) -> dict:
    total: dict = {}
    for status in statuses:
        for name, count in status["stats"].items():
            total[name] = total.get(name, 0) + count
    return total


def measure(wl, plan, rundir: Path, *, traced: bool = False) -> dict:
    """One deployment through the whole run shape; returns raw numbers.

    setup -> discarded warm-up segment -> ``pipelined`` (K segments, each
    both lanes to completion) -> ``single`` (per-op latency) -> kill and
    restart (kv-durable) -> quiesce -> convergence check -> stop.
    """
    dep = Deployment(wl, plan, rundir, traced=traced)
    probe = HostProbe()
    client_tracer = tracing.Tracer() if traced else None
    try:
        if client_tracer is not None:
            tracing.instrument_client(client_tracer)
        dep.setup()
        rss_start = rss_bytes(dep.pids()[0])
        dep.run_lanes(plan.segments[0])

        before = _sum_stats(dep.statuses())
        client_counts = dict(client_tracer.counts) if traced else {}
        cpu0, own0 = cpu_seconds(dep.pids()), time.process_time()
        wall0 = time.perf_counter_ns()
        segments = []     # (seconds, server CPU seconds) per segment
        for lanes in plan.segments[1:]:
            probe.burst()
            cpu = cpu_seconds(dep.pids())
            seconds = dep.run_lanes(lanes)
            segments.append((seconds, cpu_seconds(dep.pids()) - cpu))
        wall1 = time.perf_counter_ns()
        cpu1, own1 = cpu_seconds(dep.pids()), time.process_time()
        after = _sum_stats(dep.statuses())
        speed = {"pipelined": probe.speed()}

        blocks = []       # per time block of the single phase: latencies
        for i in range(LATENCY_BLOCKS):
            probe.burst()
            blocks.append(new_latencies())
            dep.run_lanes([lane[len(lane) * i // LATENCY_BLOCKS:
                                len(lane) * (i + 1) // LATENCY_BLOCKS]
                           for lane in plan.single], blocks[-1])
        speed["single"] = probe.speed()
        totals = _sum_stats(dep.statuses())
        rss_end = rss_bytes(dep.pids()[0])

        # the traced deployment is not crashed: its restarted replica
        # would dump over the spans of the one that served the run
        recovery = (dep.crash_and_recover() if wl.durable and not traced
                    else {})
        dep.close_clients()
        dep.quiesce()
        dep.check_convergence()
        dep.stop()
    finally:
        if client_tracer is not None:
            client_tracer.unpatch()
        dep.abort()

    ops = plan.pipelined_ops
    fast = faster_half(segments)
    fast_ops = plan.segment_ops * len(fast)
    out = {
        "attempted": dep.attempted, "failed": dep.failed,
        "failures": [f for c in dep.checkers for f in c.first_failures],
        "timings": dep.timings, "ops": ops,
        "segment_rates": [plan.segment_ops / s for s, _ in segments],
        "ops_per_s": fast_ops / sum(s for s, _ in fast),
        "server_cpu_us_per_op": sum(c for _, c in fast) / fast_ops * 1e6,
        "window_cpu_us_per_op": (cpu1 - cpu0) / ops * 1e6,
        "client_cpu_us_per_op": (own1 - own0) / ops * 1e6,
        "phase": {k: after.get(k, 0) - before.get(k, 0) for k in after},
        "totals": totals, "recovery": recovery,
        "window": (wall0, wall1), "host_speed": speed,
        "rss_end": rss_end, "rss_growth": rss_end - rss_start,
        "samples": {},
    }
    for kind, label in ((OP_READ, "read"), (OP_WRITE, "write")):
        # a very short run can leave a block without a write
        samples = [sorted(block[kind]) for block in blocks if block[kind]]
        out["samples"][label] = sum(len(sample) for sample in samples)
        for q in (50, 90):
            out[f"{label}_p{q}_ms"] = quieter_half(
                [percentile(sample, q) for sample in samples]) * 1e3
        out[f"{label}_p99_ms"] = percentile(
            sorted(x for sample in samples for x in sample), 99) * 1e3
    if traced:
        out["client_spans"] = tracing.self_times(
            client_tracer.names,
            [row for row in client_tracer.rows if row is not None],
            out["window"])
        out["client_bytes"] = {
            k: client_tracer.counts[k] - client_counts.get(k, 0)
            for k in ("request_bytes", "response_bytes")}
    return out


def at_reference_speed(wl, raw: dict) -> dict:
    """The end-to-end metrics as they would read with the host at its
    reference speed (:class:`bench.load.HostProbe`): work done per second
    is divided by the speed of the phase that measured it, time spent is
    multiplied by it (set-up, which has no bursts of its own, by the speed
    of the pipelined phase that follows it).  Timer-bound metrics stay as
    measured."""
    pipelined, single = raw["host_speed"]["pipelined"], raw["host_speed"]["single"]
    scaled = {"setup_s": raw["setup_s"] * pipelined,
              "ops_per_s": raw["ops_per_s"] / pipelined,
              "server_cpu_us_per_op": raw["server_cpu_us_per_op"] * pipelined}
    for name in ("read_p50_ms", "read_p90_ms", "write_p50_ms", "write_p90_ms"):
        scaled[name] = raw[name] * single
    scaled.update({name: raw[name] for name in wl.timer_bound})
    return scaled


def time_setup(wl, plan, rundir: Path) -> float:
    """Boot, preload, stop: one more sample of the set-up time."""
    dep = Deployment(wl, plan, rundir)
    try:
        seconds = dep.setup()
        dep.stop()
    finally:
        dep.abort()
    if dep.failed:
        raise RuntimeError(f"set-up failed: {dep.checkers[0].first_failures}")
    return seconds


def recorded_check(wl, seed: int, rundir: Path) -> tuple:
    """A short recorded deployment replayed through every conformance
    oracle (legality, invariants, Theorem 4): exact-zero or fail."""
    plan = build_plan(wl, seed, RECORDED_OPS, RECORDED_OPS // 5,
                      keys=RECORDED_KEYS, segments=1)
    dep = Deployment(wl, plan, rundir, record=True)
    try:
        dep.setup()
        for lanes in plan.segments:
            dep.run_lanes(lanes)
        dep.run_lanes(plan.single)
        dep.close_clients()
        dep.quiesce()
        dep.stop()
        dep.verify_recording()
    finally:
        dep.abort()
    return dep.attempted, dep.failed, dep.checkers[0].first_failures


# -- the traced run ---------------------------------------------------------

def layer_metrics(wl, plain: dict, traced: dict, rundir: Path) -> dict:
    """Per-layer metrics: counts from the untraced deployment's admin
    plane, times from the traced deployment's spans."""
    ops = traced["ops"]
    spans: dict = {}          # name -> [count, self cpu ns, wall ns]
    delays = 0
    snap_walls: list = []
    for node in range(3):
        names, counts, rows = tracing.load_spans(rundir / f"trace-n{node}")
        delays += counts.get("write_delays", 0)
        for name, t in tracing.self_times(names, rows, traced["window"]).items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += t[i]
        snap_walls.append(tracing.snapshot_walls(names, rows))

    def per_call(name: str) -> float:
        count, cpu, _ = spans.get(name, (0, 0, 0))
        return ratio(cpu, count) / 1e3

    def per_op(name: str) -> float:
        return spans.get(name, (0, 0, 0))[1] / ops / 1e3

    busy = {layer: sum(per_op(n) for n in names)
            for layer, names in BUSY_LAYERS.items()}
    request_self = per_op(tracing.REQUEST_SPAN)
    traced_cpu = traced["window_cpu_us_per_op"]
    read_frame = spans.get("serve.codec.read_frame", (0, 0, 0))
    sync = spans.get("durability.wal.sync", (0, 0, 0))
    phase, tphase = plain["phase"], traced["phase"]
    totals = plain["totals"]
    window_ns = traced["window"][1] - traced["window"][0]
    all_snaps = [w for walls in snap_walls for w in walls]
    growth = [walls[-1] / walls[0] for walls in snap_walls if len(walls) > 1]
    client = traced["client_spans"]

    def client_per_op(name: str) -> float:
        return client[name].self_cpu_ns / ops / 1e3 if name in client else 0.0

    m = {
        "serve.client.encode_request_us_per_op":
            client_per_op("serve.client.encode_request"),
        "serve.client.decode_response_us_per_op":
            client_per_op("serve.client.decode_response"),
        "serve.client.cpu_us_per_op": plain["client_cpu_us_per_op"],
        "serve.client.read_p99_ms": plain["read_p99_ms"],
        "serve.client.write_p99_ms": plain["write_p99_ms"],
        "serve.codec.decode_request_us_per_op":
            per_op("serve.codec.decode_request"),
        "serve.codec.encode_response_us_per_op":
            per_op("serve.codec.encode_response"),
        "serve.codec.request_bytes_per_op":
            traced["client_bytes"]["request_bytes"] / ops,
        "serve.codec.response_bytes_per_op":
            traced["client_bytes"]["response_bytes"] / ops,
        "serve.codec.encode_message_us_per_msg":
            per_call("serve.codec.encode_message_into"),
        "serve.codec.decode_message_us_per_msg":
            per_call("serve.codec.decode_message_from"),
        "serve.codec.peer_bytes_per_write":
            ratio(phase["peer_bytes"], phase["writes"]),
        "serve.codec.write_frame_us_per_frame":
            per_call("serve.codec.write_frame"),
        "serve.codec.read_frame_wait_us_per_frame":
            ratio(read_frame[2], read_frame[0]) / 1e3,
        "serve.codec.busy_us_per_op": busy["serve.codec"],
        "sim.node.do_read_us": per_call("sim.node.do_read"),
        "sim.node.do_write_us": per_call("sim.node.do_write"),
        "sim.node.receive_us": per_call("sim.node.receive"),
        "sim.node.write_delays_per_kwrite":
            ratio(delays, traced["totals"]["writes"]) * 1e3,
        "sim.node.busy_us_per_op": busy["sim.node"],
        "core.optp.busy_us_per_op": busy["core.optp"],
        "serve.server.msgs_per_peer_batch":
            ratio(phase["peer_msgs"], phase["peer_batches"]),
        "serve.server.peer_batches_per_kwrite":
            ratio(phase["peer_batches"], phase["writes"]) * 1e3,
        # per request, not per read: a request waits once, at its first
        # read, and then holds everything the later ones need
        "serve.server.read_wait_ratio":
            ratio(phase["read_waits"], phase["requests"]),
        "serve.server.request_self_us_per_op": request_self,
        "serve.server.unaccounted_us_per_op":
            traced_cpu - sum(busy.values()) - request_self,
        "serve.server.traced_cpu_us_per_op": traced_cpu,
        "serve.server.rss_mb_end": plain["rss_end"] / 1e6,
        "serve.server.rss_growth_bytes_per_write":
            ratio(plain["rss_growth"], totals["writes"]),
        "durability.wal.encode_record_us_per_record":
            per_call("durability.wal.encode_record"),
        "durability.wal.append_us_per_record":
            per_call("durability.wal.append"),
        # wall, per fsync actually performed: sync() is also called when
        # nothing is dirty, and an fsync is waiting, not CPU
        "durability.wal.sync_us_per_call":
            ratio(sync[2], tphase.get("wal_fsyncs", 0)) / 1e3,
        "durability.wal.records_per_fsync":
            ratio(phase.get("wal_records", 0), phase.get("wal_fsyncs", 0)),
        "durability.wal.fsyncs_per_kop":
            phase.get("wal_fsyncs", 0) / plain["ops"] * 1e3,
        "durability.wal.bytes_per_user_byte":
            ratio(phase.get("wal_bytes", 0), phase["writes"] * VALUE_BYTES),
        "durability.busy_us_per_op": busy["durability"],
        "durability.snapshot.count": totals["snapshots"],
        "durability.snapshot.mean_ms":
            statistics.fmean(all_snaps) / 1e6 if all_snaps else 0.0,
        "durability.snapshot.last_over_first":
            statistics.fmean(growth) if growth else 0.0,
        "durability.snapshot.stall_share":
            sum(all_snaps) / (3 * window_ns) if wl.durable else 0.0,
        "serve.harness.boot_s": plain["timings"]["boot_s"],
        "serve.harness.quiesce_s": plain["timings"]["quiesce_s"],
        "serve.harness.stop_s": plain["timings"]["stop_s"],
        "trace_overhead_ratio": plain["ops_per_s"] / traced["ops_per_s"],
    }
    for method in ("read", "write", "missing_deps", "classify",
                   "apply_update"):
        m[f"core.optp.{method}_us"] = per_call(f"core.optp.{method}")
    for name in ("recovery_ms", "restart_wall_s", "resync_s"):
        m[f"durability.recovery.{name}"] = plain["recovery"].get(name, 0.0)
    return m


# -- one run ----------------------------------------------------------------

def run(args, work: Path) -> int:
    wl = WORKLOADS[args.workload]
    env = environment()
    attempted = failed = 0
    failures: list = []

    def account(ops: int, bad: int, what: list) -> None:
        nonlocal attempted, failed
        attempted += ops
        failed += bad
        failures.extend(what)

    def rundir(name: str) -> Path:
        # a fresh directory per deployment: WAL and socket files of an
        # earlier one must not be recovered from
        path = work / name
        path.mkdir(parents=True)
        return path

    plan = build_plan(wl, args.seed,
                      *scaled_counts(wl, args.seconds, bool(args.trace)))
    # the plan is millions of long-lived objects: keep the collector from
    # walking them in the middle of a measured segment
    gc.collect()
    gc.freeze()
    print(f"workload {wl.name}  seed {args.seed}  N {plan.pipelined_ops}"
          f"  N1 {plan.single_ops}  B {wl.batch}  K {SEGMENTS}"
          f"  stream {plan.digest()[:16]}")

    account(*recorded_check(wl, args.seed, rundir("recorded")))
    plain = measure(wl, plan, rundir("plain"))
    account(plain["attempted"], plain["failed"], plain["failures"])
    if args.trace:
        traced = measure(wl, plan, rundir("traced"), traced=True)
        account(traced["attempted"], traced["failed"], traced["failures"])
        metrics = layer_metrics(wl, plain, traced, work / "traced")
        wal = work / "plain" / "wal" / "node-g0n2.wal" if wl.durable else None
        metrics.update(ceilings.run_all(plan, work, wal))
        negative = [k for k in ("serve.server.unaccounted_us_per_op",
                                "serve.server.request_self_us_per_op")
                    if metrics[k] < 0]
        if negative:
            failed += 1
            failures.append(f"busy/unaccounted identity broken: {negative}")
    else:
        setups = [plain["timings"]["setup_s"]] + [
            time_setup(wl, plan, rundir(f"setup{i}"))
            for i in range(1, SETUPS)]
        plain["setup_s"] = statistics.median(setups)
        metrics = at_reference_speed(wl, plain)
        print(f"setup_s samples {[round(s, 4) for s in setups]}")
        rates = plain["segment_rates"]
        print(f"ops_per_s segments {[round(r) for r in rates]}  quartiles "
              f"{[round(q) for q in statistics.quantiles(rates, n=4)]}")
        print(f"latency samples {plain['samples']}")
        print(f"host speed {plain['host_speed']}  as measured "
              + "  ".join(f"{name} {plain[name]:.4f}"
                          for name, _ in END_TO_END))
        print(f"diagnostic read_p99_ms {plain['read_p99_ms']:.4f}"
              f"  write_p99_ms {plain['write_p99_ms']:.4f}")

    env["steal_ticks_run"] = steal_ticks() - env.pop("steal_ticks_start")
    env["loadavg_end"] = os.getloadavg()[0]
    print(f"env {json.dumps(env)}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, unit in units.items():
        print(f"{name:52s} {metrics[name]:14.4f} {unit}")
    print(f"ops_attempted {attempted}  ops_failed {failed}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return exit_code(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="scales the frozen op counts (10 = as frozen)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="R",
                        help="run every workload R times and compare the sets")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    # children are spawned: they inherit the environment, sys.path and cwd
    os.environ["PYTHONHASHSEED"] = "0"
    os.chdir(ROOT)
    # a terminated run unwinds like a failed one, through every finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.selftest:
            from bench import test_workloads
            return test_workloads.run_all()
        if args.repeat:
            from bench import repeat
            return repeat.main(args.repeat, args.seed, args.seconds,
                               [args.workload] if args.workload else None)
        if args.workload is None:
            parser.error("--workload is required")
        return run_and_clean_up(args)
    finally:
        reap_children()


def run_and_clean_up(args) -> int:
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, work)
    except Exception:
        # the boundary: report the failure as a failed run, with no
        # result line, and leave no process or file behind
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
