"""Spans and counters around the package's public functions, from outside it.

``Tracer.install`` replaces each traced function at every module attribute
and class attribute that holds it, because the modules import names
directly (``reebtwist.cli.shoot_orbit`` and ``reebtwist.orbits.shoot_orbit``
are the same object).  ``uninstall`` puts the originals back.

Every call records a span: id, parent id, op id, name, start, end and the
exception class it raised, if any.  Spans stay in memory and are written
out by ``write`` when the run ends.  Self time is computed as the spans
close: a span's duration minus the time covered by its children.  Children
in the same thread never overlap; spans opened by worker threads (the
``sweep`` command's thread pool) are children of the op's root span, and
the union of their intervals is what gets subtracted from the root.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute path, span name); several entries may share a span name
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("pearls", "compare_with_oracle", "pearls.compare_with_oracle"),
    ("pearls", "build_pearl_complex", "pearls.build_pearl_complex"),
    ("pearls", "tate_homology", "pearls.tate_homology"),
    ("complexes", "validate", "complexes.validate"),
    ("complexes", "quotient_by_action", "complexes.quotient_by_action"),
    ("complexes", "homology", "complexes.homology"),
    ("complexes", "GradedF2Complex.to_json_dict", "complexes.GradedF2Complex.to_json_dict"),
    ("f2", "rank", "f2.rank"),
    ("f2", "matmul", "f2.matmul"),
    ("geometry", "reeb_field", "geometry.reeb_field"),
    ("geometry", "RoundSphere.reeb_field", "geometry.reeb_field"),
    ("geometry", "RadialProfile.reeb_field", "geometry.reeb_field"),
    ("geometry", "reeb_flow_samples", "geometry.reeb_flow_samples"),
    ("geometry", "load_model", "geometry.load_model"),
    ("orbits", "shoot_orbit", "orbits.shoot_orbit"),
    ("orbits", "action", "orbits.action"),
    ("orbits", "analytic_spectrum", "orbits.analytic_spectrum"),
    ("czindex", "cz_index_unitary", "czindex.cz_index_unitary"),
    ("lifting", "classify_orbit_loop", "lifting.classify_orbit_loop"),
    ("lifting", "lift_loop", "lifting.lift_loop"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})

# record layout in Tracer.spans, one float64 per field
FIELDS = ("id", "parent", "op", "name", "start", "end", "error")


class Tracer:
    def __init__(self):
        self.spans = array("d")
        self.names = list(SPAN_NAMES)
        self.errors = [""]                    # index 0: no exception
        self.busy = Counter()                 # span name -> seconds, all ops
        self.self_time = Counter()
        self.totals = Counter()               # counters summed over all ops
        self.op_counts = Counter()            # counters of the current op
        self.max_rank_dim = 0
        self.op = -1
        self._root = 0
        self._cross: list[tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for module in {module for module, _, _ in TARGETS}:
            importlib.import_module(f"reebtwist.{module}")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "reebtwist" or name.startswith("reebtwist.")}
        for module, attr, name in TARGETS:
            owner = mods[f"reebtwist.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- ops ----------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Start counting for op ``op``; its counters are ``op_counts`` until the next op."""
        self.op = op
        self.op_counts = Counter()

    # -- spans ----------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        name_idx = float(self.names.index(name))
        on_exit = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif threading.current_thread() is threading.main_thread():
                parent = 0
            else:
                parent = tracer._root
            sid = next(tracer._ids)
            if parent == 0:
                tracer._root = sid
                tracer._cross = []
            frame = [sid, 0.0]
            stack.append(frame)
            if name == "orbits.shoot_orbit":
                tracer._local.shooting = getattr(tracer._local, "shooting", 0) + 1
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if name == "orbits.shoot_orbit":
                    tracer._local.shooting -= 1
                tracer._close(sid, parent, name, name_idx, t0, t1, frame[1], stack, error,
                              on_exit, args)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, sid, parent, name, name_idx, t0, t1, child_time, stack, error,
               on_exit, args) -> None:
        dur = t1 - t0
        with self._lock:
            if parent == 0:
                child_time += _union(self._cross, t0, t1)
            if stack:
                stack[-1][1] += dur
            elif parent:
                self._cross.append((t0, t1))
            err_idx = 0
            if error is not None:
                kind = type(error).__name__
                if kind not in self.errors:
                    self.errors.append(kind)
                err_idx = self.errors.index(kind)
                self.op_counts[f"{name}.raised.{kind}"] += 1
            self.spans.extend((sid, parent, self.op, name_idx, t0, t1, err_idx))
            self.busy[name] += dur
            self.self_time[name] += dur - child_time
            self.op_counts[f"{name}.calls"] += 1
            self.totals[f"{name}.calls"] += 1
            if name == "geometry.reeb_flow_samples" and getattr(self._local, "shooting", 0):
                self.op_counts["orbits.shoot_orbit.flows"] += 1
                self.totals["orbits.shoot_orbit.flows"] += 1
            if error is not None and name == "orbits.shoot_orbit" \
                    and type(error).__name__ == "ConvergenceError":
                self.totals["orbits.shoot_orbit.fail"] += 1
            if on_exit is not None and error is None:
                for key, value in on_exit(self, args):
                    self.op_counts[key] += value
                    self.totals[key] += value

    # -- output -----------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as float64 records (``path``.bin) plus a JSON header (``path``.json)."""
        with open(path + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"fields": FIELDS, "names": self.names, "errors": self.errors,
                       "records": len(self.spans) // len(FIELDS),
                       "clock": "time.perf_counter seconds"}, fh, indent=1)


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _rank_extra(tracer: Tracer, args):
    m = args[0]
    tracer.max_rank_dim = max(tracer.max_rank_dim, m.rows, m.cols)
    return ()


def _matmul_extra(tracer: Tracer, args):
    a, b = args[0], args[1]
    return (("f2.matmul.cells", a.rows * a.cols * b.cols),)


def _validate_extra(tracer: Tracer, args):
    c = args[0]
    return (("complexes.generators", sum(c.dim(d) for d in c.degrees())),)


_EXTRA = {"f2.rank": _rank_extra, "f2.matmul": _matmul_extra,
          "complexes.validate": _validate_extra}
