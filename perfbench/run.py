#!/usr/bin/env python3
"""Benchmark of the reebtwist CLI: three seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pearl_sweep --seed 1 --seconds 50 --trace 0

One client issues whole cycles of ops (see ``workloads.py``) until
``--seconds`` have passed, each op one in-process ``reebtwist.cli.main(argv)``
call with stdout and stderr captured, and checks every output against a
closed form (``checks.py``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it summarise the run, and the full record goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

``--trace 0`` reports the end-to-end metrics, with the package untouched.
``--trace 1`` wraps the package's public functions (``spans.py``) and
reports per-layer metrics per op, replays the first ops to check that
their work counters repeat exactly, and times the same ops with and
without the wrappers to give the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter, process_time, thread_time

from checks import classify
from spans import SPAN_NAMES, Tracer
from workloads import WORKLOADS, Op, Schedule

OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5         # set-up is timed this many times; the median is reported
TAIL_BEYOND = 10         # op_tail_ms: highest percentile with this many samples beyond it
REPLAY_SECONDS = 3.0     # traced runs replay the first ops up to this much op time
REF_LOOP = 20_000        # iterations of the reference loop that measures the machine's speed
REF_LOOP_S = 2.0e-3      # op times are scaled to the speed at which it takes this long
REF_EVERY = 0.25         # wall seconds between reference samples in the timed loop
REF_WINDOW = 3.0         # an op is scaled by the median sample within this many seconds of it


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Record:
    op: Op
    cycle: int
    cpu: float                         # CPU seconds, see cpu_seconds
    wall: float
    mid: float                         # perf_counter at the middle of the op
    outcome: str
    note: str
    out_bytes: int
    counts: Counter | None = field(default=None, repr=False)
    latency: float = 0.0               # cpu scaled to the reference speed, see Speedometer


class Speedometer:
    """Times a fixed pure-Python loop again and again: the machine's speed over time.

    The shared machine this benchmark was built on changes speed every few
    seconds: in some stretches the same CPU-bound work takes 1.4-1.8x the
    CPU time it takes in others, and each run sees a different share of
    slow stretches.
    Every op time is therefore multiplied by REF_LOOP_S over the loop's
    median time within REF_WINDOW seconds of the op's middle, so that
    times read as if the loop took REF_LOOP_S.  The loop is benchmark code
    that does not change with the package, so a change to the package moves
    the scaled times as it moves the raw ones.  It is timed in this thread's
    CPU time with the garbage collector off, so neither threads nor heap that
    the package leaves behind affect it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = thread_time()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        cost = thread_time() - t0
        if enabled:
            gc.enable()
        self.at.append(perf_counter())
        self.cost.append(cost)

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= REF_EVERY:
            self.sample()

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - REF_WINDOW)
        hi = bisect.bisect_right(self.at, t + REF_WINDOW)
        if lo == hi:                   # no sample near t: take the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return REF_LOOP_S / statistics.median(self.cost[lo:hi])

    def apply(self, records: list[Record]) -> None:
        for r in records:
            r.latency = r.cpu * self.scale(r.mid)

    def reading(self) -> dict:
        c = self.cost
        return {"samples": len(c), "median_ms": statistics.median(c) * 1e3,
                "min_ms": min(c) * 1e3, "max_ms": max(c) * 1e3,
                "spread": quartile_spread(c),
                "at_s": [t - self.at[0] for t in self.at], "cost_s": c}


# -- running ops ------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time of this process, all its threads, and its waited-for children.

    Ops are timed in CPU time.  The shared virtual machine this benchmark was
    built on loses its vCPU to the hypervisor for seconds at a time (the
    steal column of /proc/stat), which made the wall time of identical work
    swing by 2-5x in stretches where its CPU time moved about 10 %.  The ops do no
    I/O beyond small cached files, so on an idle machine the two agree; the
    wall times are kept in the record.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def call(cli, argv: list[str]) -> tuple[object, float, float, float, str, str]:
    """One op: ``cli.main(argv)`` with captured output.

    Returns (exit code, CPU seconds, wall seconds, perf_counter at the middle,
    stdout, stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = perf_counter(), cpu_seconds()
        try:
            code = cli.main(argv)
        except SystemExit as exc:           # argparse rejects the arguments
            code = exc.code
        except Exception:                   # an uncaught error is a failed op, not a crash
            code = "traceback"
            err.write(traceback.format_exc())
        cpu, t1 = cpu_seconds() - c0, perf_counter()
    return code, cpu, t1 - t0, (t0 + t1) / 2, out.getvalue(), err.getvalue()


def run_loop(cli, schedule: Schedule, seconds: float, tracer: Tracer | None,
             speed: Speedometer) -> list[Record]:
    records: list[Record] = []
    deadline = perf_counter() + seconds
    cycle = 0
    while perf_counter() < deadline:
        for op in schedule.cycle(cycle):
            speed.maybe_sample()
            if tracer:
                tracer.begin_op(len(records))
            code, cpu, wall, mid, out, err = call(cli, op.argv)
            outcome, note = classify(op, code, out, err)
            records.append(Record(op, cycle, cpu, wall, mid, outcome, note, len(out),
                                  tracer.op_counts if tracer else None))
        cycle += 1
    speed.sample()
    speed.apply(records)
    return records


def replay(cli, tracer: Tracer, records: list[Record]) -> dict:
    """Re-run the first ops traced and untraced, interleaved.

    The traced pass must repeat each op's work counters and outcome exactly;
    the two passes' op times give the tracing overhead on identical work.
    """
    prefix, spent = [], 0.0
    for rec in records:
        if prefix and spent + rec.cpu > REPLAY_SECONDS:
            break
        prefix.append(rec)
        spent += rec.cpu
    mismatches, traced, untraced = [], 0.0, 0.0
    for i, rec in enumerate(prefix):
        tracer.begin_op(len(records) + i)
        code, cpu, _, _, out, err = call(cli, rec.op.argv)
        traced += cpu
        outcome, _ = classify(rec.op, code, out, err)
        counts = tracer.op_counts
        if counts != rec.counts or outcome != rec.outcome:
            diff = sorted(k for k in set(counts) | set(rec.counts) if counts[k] != rec.counts[k])
            mismatches.append({"argv": rec.op.argv, "counters": diff,
                               "outcome": [rec.outcome, outcome]})
        tracer.uninstall()
        try:
            untraced += call(cli, rec.op.argv)[1]
        finally:
            tracer.install()
    return {"ops": len(prefix), "mismatches": mismatches,
            "traced_s": traced, "untraced_s": untraced,
            "overhead_frac": traced / untraced - 1.0 if untraced > 0 else 0.0}


# -- set-up ---------------------------------------------------------------------------------

def input_dir(workload: str, seed: int) -> str:
    return os.path.join(OUT_DIR, "inputs", f"{workload}-{seed}")


def setup_probe(args) -> None:
    """Child process of measure_setup: generate inputs, import the CLI, report ready
    with the CPU seconds used since the interpreter started."""
    Schedule(args.workload, args.seed, input_dir(args.workload, args.seed)).cycle(0)
    import reebtwist.cli  # noqa: F401
    print(f"ready {process_time()!r}", flush=True)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh interpreter start until inputs exist and reebtwist.cli is imported.

    Returns the CPU seconds each probe reports and the wall seconds to its
    ready line.  These are not scaled to the reference speed: a probe may
    run on the other CPU, and scaling by the loop timed in the probe itself
    made the median of 5 probes spread more, not less.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe timed out")
        if proc.returncode != 0 or not line.startswith("ready "):
            raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
        cpu.append(float(line.split()[1]))
        wall.append(t1 - t0)
    return cpu, wall


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "system": platform.system()}


# -- reporting ---------------------------------------------------------------------------------

def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(seconds, percentile, samples) at the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(records: list[Record], setup: tuple[list[float], list[float]]
               ) -> tuple[dict, dict]:
    ok = [r.latency for r in records if r.outcome == "ok"]
    if not ok:
        raise BenchError("no op succeeded")
    busy = sum(r.latency for r in records)
    tail_s, tail_pct, samples = tail(ok)
    ok_cpu = [r.cpu for r in records if r.outcome == "ok"]
    ok_wall = [r.wall for r in records if r.outcome == "ok"]
    metrics = {
        "setup_s": (statistics.median(setup[0]), "s"),
        "ok_ops_per_s": (len(ok) / busy, "ops/s"),
        "op_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": (len(ok) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"fail_frac": 1.0 - len(ok) / len(records), "busy_s": busy,
             "tail_percentile": tail_pct, "tail_samples": samples,
             "setup_probes_cpu_s": setup[0],
             "cpu": {"ok_ops_per_s": len(ok) / sum(r.cpu for r in records),
                     "op_p50_ms": statistics.median(ok_cpu) * 1e3,
                     "op_tail_ms": tail(ok_cpu)[0] * 1e3},
             "wall": {"setup_s": statistics.median(setup[1]),
                      "ok_ops_per_s": len(ok) / sum(r.wall for r in records),
                      "op_p50_ms": statistics.median(ok_wall) * 1e3,
                      "op_tail_ms": tail(ok_wall)[0] * 1e3}}
    return metrics, extra


def per_layer(tracer: Tracer, records: list[Record], import_s: float,
              check: dict) -> dict:
    n = len(records)
    t = tracer.totals
    metrics = {"cli.import_s": (import_s, "s"),
               "cli.out_bytes": (sum(r.out_bytes for r in records) / n, "B/op")}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (t[f"{name}.calls"] / n, "count/op")
        metrics[f"{name}.ms"] = (tracer.busy[name] * 1e3 / n, "ms/op")
        metrics[f"{name}.self_ms"] = (tracer.self_time[name] * 1e3 / n, "ms/op")
    calls = t["geometry.reeb_field.calls"]
    metrics.update({
        "complexes.generators": (t["complexes.generators"] / n, "count/op"),
        "f2.rank.max_dim": (tracer.max_rank_dim, "count"),
        "f2.matmul.cells": (t["f2.matmul.cells"] / n, "count/op"),
        "geometry.reeb_field.us_per_call":
            (tracer.busy["geometry.reeb_field"] * 1e6 / calls if calls else 0.0, "us"),
        "orbits.shoot_orbit.fail": (t["orbits.shoot_orbit.fail"] / n, "count/op"),
        "orbits.shoot_orbit.flows": (t["orbits.shoot_orbit.flows"] / n, "count/op"),
        "trace.overhead_frac": (check["overhead_frac"], "ratio"),
    })
    return metrics


def input_shares(records: list[Record]) -> dict:
    """Share of attempted ops with each input property the workload varies."""
    n = len(records)
    shares: dict = {"templates": dict(sorted(Counter(r.op.template for r in records).items()))}
    defects = Counter(r.op.defect for r in records if r.op.defect)
    if defects:
        shares["built_to_hit_defect"] = {d: c / n for d, c in sorted(defects.items())}
        residues = [r.op.props["residue"] for r in records if "residue" in r.op.props]
        shares["exponent_class_not_1"] = sum(x != 1 for x in residues) / len(residues)
    ms = [r.op.props["m"] for r in records if "m" in r.op.props]
    if ms:
        shares["odd_m"] = sum(m % 2 for m in ms) / len(ms)
        bins = Counter(2 ** int(math.log2(m)) for m in ms)
        shares["m_histogram"] = {f"{b}-{2 * b - 1}": c for b, c in sorted(bins.items())}
    return shares


def sweep_threading(records: list[Record]) -> dict | None:
    """Threaded ``sweep`` op against the same grid run as serial homology ops, per cycle."""
    by_cycle = defaultdict(lambda: [None, 0.0, 0])
    for r in records:
        if r.op.template == "sweep":
            by_cycle[r.cycle][0] = r.wall
        elif r.op.template == "homology.serial":
            by_cycle[r.cycle][1] += r.wall
            by_cycle[r.cycle][2] += 1
    pairs = [(s, t) for s, t, k in by_cycle.values() if s is not None and k]
    if not pairs:
        return None
    return {"cycles": len(pairs),
            "threaded_ms_median": statistics.median(s for s, _ in pairs) * 1e3,
            "serial_ms_median": statistics.median(t for _, t in pairs) * 1e3,
            "threaded_over_serial_median": statistics.median(s / t for s, t in pairs)}


def outcome_report(records: list[Record]) -> dict:
    report: dict = {"counts": dict(Counter(r.outcome for r in records))}
    for outcome in ("defect", "failed"):
        hits = [r for r in records if r.outcome == outcome]
        if hits:
            report[outcome] = {
                "by_class": dict(Counter(r.op.defect or r.op.template for r in hits)),
                "examples": [{"argv": r.op.argv, "defect": r.op.defect, "note": r.note}
                             for r in hits[:20]]}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "reebtwist", "cli.py")):
        print("error: run from the root of a reebtwist checkout (no src/reebtwist/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_probe:
        setup_probe(args)
        return 0

    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    speed = Speedometer()
    setup = ([], []) if args.trace else measure_setup(args)
    c0 = cpu_seconds()
    from reebtwist import cli
    import_s = cpu_seconds() - c0
    env = environment()

    inputs = input_dir(args.workload, args.seed)
    schedule = Schedule(args.workload, args.seed, inputs)
    # The timed loop runs thousands of CLI calls in one process.  Without
    # this, every full collection rescans the numpy/scipy heap left by the
    # import (25-40 ms, landing on a random op), a cost that a process
    # running one command does not pay again and again.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    records = run_loop(cli, schedule, args.seconds, tracer, speed)

    ok_n = sum(r.outcome == "ok" for r in records)
    failed = sum(r.outcome == "failed" for r in records)
    busy = sum(r.latency for r in records)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "attempted": len(records),
               "cycles": records[-1].cycle + 1, "environment": env,
               "reference_loop": speed.reading(),
               "outcomes": outcome_report(records), "input_shares": input_shares(records),
               "ops": {"template": [r.op.template for r in records],
                       "cpu_s": [r.cpu for r in records],
                       "wall_s": [r.wall for r in records],
                       "scaled_s": [r.latency for r in records],
                       "outcome": [r.outcome for r in records]}}
    sweep = sweep_threading(records)
    if sweep:
        details["sweep_threading"] = sweep
    correct = failed == 0
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        n_spans = len(tracer.spans)
        snapshot = (Counter(tracer.totals), Counter(tracer.busy), Counter(tracer.self_time))
        check = replay(cli, tracer, records)
        del tracer.spans[n_spans:]
        tracer.uninstall()
        tracer.totals, tracer.busy, tracer.self_time = snapshot
        correct = correct and not check["mismatches"]
        metrics = per_layer(tracer, records, import_s, check)
        details["counter_self_check"] = check
        details["traced_ok_ops_per_s"] = ok_n / busy
        details["span_totals"] = dict(tracer.totals)
        tracer.write(stem + "-spans")
        details["spans_file"] = stem + "-spans.bin"
    else:
        metrics, extra = end_to_end(records, setup)
        details.update(extra)
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(details, fh, indent=1)
    shutil.rmtree(inputs, ignore_errors=True)

    print_summary(details)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": details["metrics"]}))
    return 0


def print_summary(d: dict) -> None:
    out = d["outcomes"]
    print(f"# {d['workload']} seed={d['seed']} trace={d['trace']}: {d['attempted']} ops "
          f"in {d['cycles']} cycles, outcomes {out['counts']}")
    if "fail_frac" in d:
        m = d["metrics"]
        print(f"# fail_frac={d['fail_frac']:.4f} op_tail_ms at p{d['tail_percentile']:.1f} "
              f"of {d['tail_samples']} ok ops; "
              + " ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in m.items()))
    for outcome in ("defect", "failed"):
        if outcome in out:
            print(f"# {outcome} ops by class: {out[outcome]['by_class']}")
            for ex in out[outcome]["examples"][:3]:
                print(f"#   {' '.join(ex['argv'])} -> {ex['note']}")
    if "sweep_threading" in d:
        s = d["sweep_threading"]
        print(f"# sweep threaded {s['threaded_ms_median']:.1f} ms vs serial "
              f"{s['serial_ms_median']:.1f} ms (median ratio "
              f"{s['threaded_over_serial_median']:.3f}, {s['cycles']} cycles)")
    if "counter_self_check" in d:
        c = d["counter_self_check"]
        print(f"# counter self-check: {c['ops']} ops replayed, {len(c['mismatches'])} "
              f"mismatches; tracing overhead {c['overhead_frac']:+.3f}")
    env, ref = d["environment"], d["reference_loop"]
    print(f"# env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']}; reference loop {ref['min_ms']:.2f}-{ref['max_ms']:.2f} ms "
          f"(median {ref['median_ms']:.2f}, spread {ref['spread']:.3f}, "
          f"{ref['samples']} samples); shares {json.dumps(d['input_shares'])}")


if __name__ == "__main__":
    sys.exit(main())
