#!/usr/bin/env python3
"""One-off baselines of start-up, shooting, pearl validation and sweep threading.

Run from the root of a checkout:

    python3 perfbench/baselines.py

Prints one JSON object.  Every timing is the median of several repeats and
states its inputs, including the shooting seed, because the cost of a
shoot depends on how far the seed is from the orbit.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

SRC = os.path.join(os.getcwd(), "src")


def _python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True, env=env)


def import_time(repeats: int = 5) -> dict:
    """Fresh-interpreter import of reebtwist.cli, and scipy.optimize's share of it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import reebtwist.cli; print(time.perf_counter() - t)")
    times = [float(_python("-c", code, SRC).stdout) for _ in range(repeats)]
    cumulative = {}
    trace = _python("-X", "importtime", "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                    "import reebtwist.cli").stderr
    for line in trace.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("scipy.optimize", "reebtwist.cli", "numpy",
                                            "scipy.integrate"):
            cumulative[parts[2]] = int(parts[1]) / 1e6
    return {"import_reebtwist_cli_s": statistics.median(times), "repeats": repeats,
            "importtime_cumulative_s": cumulative}


def tate_wall(repeats: int = 5) -> dict:
    """`reebtwist tate --m 2` as a user runs it: a whole interpreter, wall clock."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _python("-m", "reebtwist.cli", "tate", "--m", "2", env=env)
        times.append(perf_counter() - t0)
    return {"tate_m2_wall_s": statistics.median(times), "repeats": repeats}


def sphere_shoot(repeats: int = 200) -> dict:
    from reebtwist.geometry import RotationTwist, RoundSphere
    from reebtwist.orbits import shoot_orbit

    model, twist = RoundSphere(2), RotationTwist(2, (1, 1))
    out = {"model": "round sphere n=2, m=2, k=(1,1), z=e_1", "repeats": repeats}
    for label, offset in (("exact", 0.0), ("offset_0.2", 0.2)):
        tau = math.pi / 2 + offset
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            shoot_orbit(model, twist, [1.0, 0.0], tau)
            times.append(perf_counter() - t0)
        out[f"shoot_ms_seed_tau_{label}"] = statistics.median(times) * 1e3
    return out


def compare_with_oracle_breakdown(repeats: int = 5) -> dict:
    """compare_with_oracle at m=128, n=4, window 0:4, with the validate share from spans."""
    from spans import Tracer
    from reebtwist.geometry import RotationTwist
    from reebtwist import pearls

    spec = pearls.PearlComplexSpec(n=4, twist=RotationTwist(128, (1,) * 4), window=(0, 4))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        pearls.compare_with_oracle(spec)
        times.append(perf_counter() - t0)
    tracer = Tracer()
    tracer.install()
    try:
        pearls.compare_with_oracle(spec)
    finally:
        tracer.uninstall()
    return {"compare_with_oracle_m128_n4_w0_4_ms": statistics.median(times) * 1e3,
            "repeats": repeats,
            "traced_once_ms": {name: tracer.busy[name] * 1e3 for name in
                               ("pearls.compare_with_oracle", "complexes.validate",
                                "complexes.quotient_by_action", "complexes.homology",
                                "f2.matmul", "f2.rank")}}


class _SerialExecutor:
    """Stand-in for ThreadPoolExecutor that maps in the calling thread."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def sweep_threading(repeats: int = 3) -> dict:
    """`sweep --m-range 2:40 --n-list 2,3,4` with its thread pool and with a serial map."""
    from run import call
    from reebtwist import cli

    argv = ["sweep", "--m-range", "2:40", "--n-list", "2,3,4", "--window", "0:3"]
    pool = cli.ThreadPoolExecutor
    threaded, serial = [], []
    for _ in range(repeats):
        threaded.append(call(cli, argv)[2])
        cli.ThreadPoolExecutor = _SerialExecutor
        try:
            serial.append(call(cli, argv)[2])
        finally:
            cli.ThreadPoolExecutor = pool
    return {"argv": argv, "repeats": repeats,
            "threaded_s": statistics.median(threaded), "serial_s": statistics.median(serial)}


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "reebtwist", "cli.py")):
        print("error: run from the root of a reebtwist checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from run import Speedometer, environment

    speed = Speedometer()
    result = {"environment": environment()}
    for measure in (import_time, tate_wall, sphere_shoot, compare_with_oracle_breakdown,
                    sweep_threading):
        for _ in range(5):
            speed.sample()
        result[measure.__name__] = measure()
    for _ in range(5):
        speed.sample()
    result["reference_loop"] = speed.reading()
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
