"""``bench/run.py --repeat R``: run the whole set R times and compare.

Each set runs every workload once, in a fresh process per workload (as
the driver does), with seed ``seed + set index``; the workload order
alternates between sets so that no workload always runs on a warm or a
tired box.  Per workload and end-to-end metric it prints the values,
their median and quartiles, the spread (interquartile distance as a
share of the median, from four sets on) and whether the sets agree
within the metric's bound from ``BENCHMARK.json``:

- fewer than four sets: no set is worse than another by more than the
  bound;
- four sets or more: the spread stays within the bound (and it should
  stay under a third of it: ``steady``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench.deploy import steal_ticks

BENCH = Path(__file__).resolve().parent


def agree(values: List[float], better: str, bound: float) -> bool:
    lo, hi = min(values), max(values)
    if better == "lower":
        return hi <= lo * (1 + bound)
    return lo >= hi * (1 - bound)


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(sets: int, seed: int, seconds: float,
         workloads: Optional[List[str]] = None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = workloads or [w["name"] for w in spec["workloads"]]
    print("env " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg_start": os.getloadavg()[0]}))
    steal0, t0 = steal_ticks(), time.time()
    values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    ok = True
    for i in range(sets):
        for name in (names if i % 2 == 0 else names[::-1]):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed + i), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"set {i} {name}: run failed (exit {proc.returncode})")
                print(proc.stdout)
                ok = False
                continue
            result = json.loads(lines[-1])
            speed = next((l for l in lines if l.startswith("host speed")), "")
            print(f"set {i} {name}: attempted {result['attempted']} "
                  f"failed {result['failed']}  {speed}", flush=True)
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
    print("env " + json.dumps({
        "steal_ticks_run": steal_ticks() - steal0,
        "wall_s": round(time.time() - t0, 1),
        "loadavg_end": os.getloadavg()[0]}))
    for name in names:
        for metric in spec["end_to_end"]:
            got = values[name].get(metric["name"], [])
            if len(got) < 2:
                continue
            line = (f"{name:16s} {metric['name']:22s} "
                    f"median {statistics.median(got):12.4f} {metric['unit']:4s}")
            if len(got) >= 4:
                share = spread(got)
                quartiles = [round(q, 4) for q in statistics.quantiles(got, n=4)]
                verdict = ("steady" if share * 3 <= metric["bound"] else
                           "within bound" if share <= metric["bound"] else
                           "DISAGREE")
                if metric["name"] == "setup_s" and verdict == "DISAGREE":
                    verdict = "wide (setup_s spread is not gated)"
                line += f" quartiles {quartiles} spread {share:.3f}"
            else:
                verdict = ("agree" if agree(got, metric["better"],
                                            metric["bound"]) else "DISAGREE")
            ok = ok and verdict != "DISAGREE"
            print(f"{line} bound {metric['bound']} {verdict}")
            print(f"{'':16s} values {[round(v, 4) for v in got]}")
    return 0 if ok else 1
