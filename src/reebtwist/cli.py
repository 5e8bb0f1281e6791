"""
Command-line surface: reproducible experiments with JSON/CSV/table output.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 homology/oracle mismatch, 5 lifting error.  Identical configuration
produces byte-identical JSON: floats are rendered at 12 significant
digits, iteration orders are fixed, and payloads carry no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .complexes import ComplexValidationError, homology, quotient_by_action
from .geometry import (
    OffSurfaceError,
    RotationTwist,
    RoundSphere,
    load_model,
)
from .lifting import AmbiguousLiftError, QuotientLoop, classify_orbit_loop, lift_loop
from .orbits import (
    ConvergenceError,
    SolverSettings,
    action,
    analytic_spectrum,
    orbit_index,
    orbit_multiplier,
    shoot_orbit,
)
from .pearls import PearlComplexSpec, build_pearl_complex, compare_with_oracle, tate_homology

OUTPUT_DIR_ENV = "REEBTWIST_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MISMATCH = 4
EXIT_LIFT = 5


class ConfigError(Exception):
    pass


def round12(x: float) -> float:
    return float(f"{x:.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


# -- argument handling ----------------------------------------------------------

def _sample_count(text: str) -> int:
    # one sample step is a single chord, too coarse to integrate over or lift
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {count}")
    return count


def _finite_float(text: str) -> float:
    # nan or inf would reach the solver's linear algebra
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reebtwist",
        description="twisted Reeb orbits, indices and equivariant homology")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window=False):
        p.add_argument("--m", type=int, default=None, help="rotation order")
        p.add_argument("--k", type=str, default=None,
                       help="comma-separated rotation exponents")
        p.add_argument("--n", type=int, default=None, help="complex dimension")
        p.add_argument("--model", type=str, default=None,
                       help="model description JSON file")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config mirroring the flags; flags win")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default=None)
        p.add_argument("--out", type=str, default=None, help="output path")
        if window:
            p.add_argument("--window", type=str, default=None,
                           help="inclusive integer window LO:HI")

    p = sub.add_parser("spectrum", help="closed-form twisted spectrum table")
    common(p, window=True)

    p = sub.add_parser("orbit", help="shoot and certify a twisted orbit")
    common(p)
    p.add_argument("--tau", type=_finite_float, required=True, help="multiplier seed")
    p.add_argument("--z", type=str, default=None,
                   help="seed point, comma-separated interleaved reals")

    p = sub.add_parser("action", help="Liouville action of a certified orbit")
    common(p)
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--z", type=str, default=None)
    p.add_argument("--samples", type=_sample_count, default=1000)

    p = sub.add_parser("cz-index", help="index of orbit linearization paths")
    common(p, window=True)

    p = sub.add_parser("complex", help="build the pearl chain complex")
    common(p, window=True)

    p = sub.add_parser("homology", help="quotient homology with oracle check")
    common(p, window=True)

    p = sub.add_parser("tate", help="cyclic-group homology oracle table")
    common(p)
    p.add_argument("--degrees", type=str, default="0:9", help="degree window LO:HI")

    p = sub.add_parser("lift", help="lift a quotient loop and classify it")
    common(p)
    p.add_argument("--input", type=str, required=True, help="loop JSON file")
    p.add_argument("--basepoint", type=int, default=0)

    p = sub.add_parser("certify", help="orbit + noncontractibility certificate")
    common(p)
    p.add_argument("--pearl", type=int, default=1, help="spectrum branch")
    p.add_argument("--samples", type=_sample_count, default=256)

    p = sub.add_parser("sweep", help="homology comparison over a parameter grid")
    common(p, window=True)
    p.add_argument("--m-range", type=str, default="2:6", help="LO:HI in m")
    p.add_argument("--n-list", type=str, default="2", help="comma-separated n")

    return parser


def _parse_window(text: str, what: str = "window") -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}, expected LO:HI") from exc
    if lo > hi:
        raise ConfigError(f"empty {what} {text!r}: LO exceeds HI")
    return lo, hi


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The config file's keys as flag tokens, to be parsed before the user's flags.

    Parsed that way, every key passes the flag's own validation and the
    command line's flags win; a list becomes one token per item for an
    appending flag (``tol``) and a comma-joined value otherwise.
    """
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(getattr(args, attr), list):
            items = value if isinstance(value, list) else [value]
        else:
            items = [",".join(map(str, value)) if isinstance(value, list) else value]
        tokens.extend(f"--{attr.replace('_', '-')}={item}" for item in items)
    return tokens


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"bad tolerance override {pair!r}, expected NAME=VALUE")
        name, value = pair.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {pair!r}") from exc
    return out


_SETTINGS_KEYS = {
    "residual": "residual_tol",
    "fd_step": "fd_step",
    "rtol": "rtol",
    "atol": "atol",
    "tau_travel": "tau_travel_limit",
    "surface": "flow_surface_tol",
    "dedup": "dedup_tol",
}


def _solver_settings(tols: dict[str, float]) -> SolverSettings:
    kwargs = {}
    for name, value in tols.items():
        if name in _SETTINGS_KEYS:
            kwargs[_SETTINGS_KEYS[name]] = value
        elif name not in ("lift_match", "kernel"):
            raise ConfigError(f"unknown tolerance name {name!r}")
    return dataclasses.replace(SolverSettings(), **kwargs)


def _effective_tolerances(settings: SolverSettings, tols: dict) -> dict:
    eff = {name: getattr(settings, field) for name, field in _SETTINGS_KEYS.items()}
    eff["lift_match"] = tols.get("lift_match", 1e-6)
    eff["kernel"] = tols.get("kernel", 1e-6)
    return eff


def _resolve_geometry(args) -> tuple[object, RotationTwist, int]:
    """Model, twist and dimension from --model / --m / --k / --n."""
    model = twist = None
    if args.model:
        try:
            with open(args.model) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read model file: {exc}") from exc
        model, twist = load_model(spec)
    if args.m is not None:
        if args.k is None:
            n = args.n or (model.n if model else None)
            if n is None:
                raise ConfigError("need --k or --n alongside --m")
            k = tuple([1] * n)
        else:
            k = tuple(int(x) for x in str(args.k).split(","))
        twist = RotationTwist(m=args.m, k=k)
    if twist is None:
        raise ConfigError("no twist given: pass --m/--k or a model file with one")
    n = args.n or twist.n
    if model is None:
        model = RoundSphere(n)
    if model.n != twist.n or (args.n and args.n != twist.n):
        raise ConfigError("dimension mismatch between model, twist and --n")
    return model, twist, n


def _parse_seed_point(text: str | None, n: int) -> np.ndarray:
    if text is None:
        z = np.zeros(n, dtype=complex)
        z[0] = 1.0
        return z
    values = [float(x) for x in text.split(",")]
    if len(values) != 2 * n:
        raise ConfigError(f"seed point needs {2 * n} interleaved reals")
    return np.asarray(values, dtype=float).view(np.complex128)


def _orbit_payload(orbit) -> dict:
    return {
        "z0": [float(v) for v in orbit.z0.view(np.float64)],
        "tau": orbit.tau,
        "residual": orbit.residual,
        "support": list(orbit.support),
        "component": orbit.component_id,
    }


# -- commands ---------------------------------------------------------------------

def cmd_spectrum(args, tols):
    model, twist, n = _resolve_geometry(args)
    window = _parse_window(args.window or "0:3")
    table = analytic_spectrum(twist, n, window, model.coefficients())
    rows = table.to_json_rows()
    return {"rows": rows, "window": list(window)}, rows, EXIT_OK


def cmd_orbit(args, tols):
    model, twist, n = _resolve_geometry(args)
    settings = _solver_settings(tols)
    seed = _parse_seed_point(args.z, n)
    orbit = shoot_orbit(model, twist, seed, args.tau, settings=settings)
    return {"orbit": _orbit_payload(orbit)}, None, EXIT_OK


def cmd_action(args, tols):
    model, twist, n = _resolve_geometry(args)
    settings = _solver_settings(tols)
    seed = _parse_seed_point(args.z, n)
    orbit = shoot_orbit(model, twist, seed, args.tau, settings=settings)
    value = action(orbit, model, quadrature_n=args.samples, settings=settings)
    data = {"tau": orbit.tau, "action": value,
            "difference": abs(value - orbit.tau), "samples": args.samples}
    return data, None, EXIT_OK


def cmd_cz_index(args, tols):
    model, twist, _ = _resolve_geometry(args)
    window = _parse_window(args.window or "0:3")
    a = model.coefficients()
    rows = []
    for k in range(window[0], window[1] + 1):
        tau = orbit_multiplier(twist.m, twist.residue(0), k) / a[0]
        rows.append({"k": k, "tau": tau, "index": orbit_index(tau, a)})
    return {"rows": rows}, rows, EXIT_OK


def cmd_complex(args, tols):
    _, twist, n = _resolve_geometry(args)
    window = _parse_window(args.window or "0:2")
    complex_ = build_pearl_complex(PearlComplexSpec(n=n, twist=twist, window=window))
    return complex_.to_json_dict(), None, EXIT_OK


def cmd_homology(args, tols):
    _, twist, n = _resolve_geometry(args)
    window = _parse_window(args.window or "0:3")
    if twist.m == 1:
        complex_ = build_pearl_complex(PearlComplexSpec(n=n, twist=twist, window=window))
        table = homology(quotient_by_action(complex_))
        rows = [{"d": d, "dim": v} for d, v in sorted(table.interior_dims().items())]
        data = {"note": "trivial rotation: nothing to divide out, "
                        "reporting the untwisted homology table",
                "degrees": rows, "m": 1, "n": n, "window": list(window)}
        return data, rows, EXIT_OK
    report = compare_with_oracle(PearlComplexSpec(n=n, twist=twist, window=window))
    data = report.to_json_dict()
    data["all_match"] = report.all_match
    rows = data["degrees"]
    return data, rows, (EXIT_OK if report.all_match else EXIT_MISMATCH)


def cmd_tate(args, tols):
    if args.m is None:
        raise ConfigError("tate needs --m")
    degrees = _parse_window(args.degrees, "degrees")
    table = tate_homology(args.m, degrees)
    rows = [{"d": d, "dim": table.dims[d], "reliable": table.reliable[d]}
            for d in sorted(table.dims)]
    return {"m": args.m, "degrees": rows}, rows, EXIT_OK


def cmd_lift(args, tols):
    try:
        with open(args.input) as fh:
            loop = QuotientLoop.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise ConfigError(f"cannot read loop file: {exc}") from exc
    result = lift_loop(loop, basepoint_choice=args.basepoint,
                       match_tol=tols.get("lift_match", 1e-6))
    return result.certificate(), None, EXIT_OK


def cmd_certify(args, tols):
    model, twist, n = _resolve_geometry(args)
    settings = _solver_settings(tols)
    a = model.coefficients()
    tau_seed = orbit_multiplier(twist.m, twist.residue(0), args.pearl) / a[0]
    seed = _parse_seed_point(getattr(args, "z", None), n)
    orbit = shoot_orbit(model, twist, seed, tau_seed, settings=settings)
    value = action(orbit, model, settings=settings)
    index = orbit_index(orbit.tau, a)
    result = classify_orbit_loop(orbit, twist, model, samples=args.samples)
    data = {
        "orbit": _orbit_payload(orbit),
        "action": value,
        "index": index,
        "deck": result.deck.exponent,
        "deck_order": result.deck.order,
        "noncontractible": not result.contractible,
        "margin": result.margin,
    }
    return data, None, EXIT_OK


def cmd_sweep(args, tols):
    m_lo, m_hi = _parse_window(args.m_range, "m range")
    if m_lo < 2:
        raise ConfigError("sweep requires m >= 2 (no quotient for m = 1)")
    n_list = [int(x) for x in args.n_list.split(",")]
    window = _parse_window(args.window or "0:3")
    grid = [(m, n) for m in range(m_lo, m_hi + 1) for n in n_list]

    def run(point):
        m, n = point
        twist = RotationTwist(m, tuple([1] * n))
        report = compare_with_oracle(PearlComplexSpec(n=n, twist=twist, window=window))
        data = report.to_json_dict()
        data["all_match"] = report.all_match
        return data

    results = [run(point) for point in grid]
    ok = all(r["all_match"] for r in results)
    return {"sweep": results, "all_match": ok}, None, (
        EXIT_OK if ok else EXIT_MISMATCH)


COMMANDS = {
    "spectrum": cmd_spectrum,
    "orbit": cmd_orbit,
    "action": cmd_action,
    "cz-index": cmd_cz_index,
    "complex": cmd_complex,
    "homology": cmd_homology,
    "tate": cmd_tate,
    "lift": cmd_lift,
    "certify": cmd_certify,
    "sweep": cmd_sweep,
}


# -- output -------------------------------------------------------------------------

def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            value = row[key]
            if isinstance(value, float):
                cells.append(f"{round12(value):.12g}")
            elif isinstance(value, list):
                cells.append(";".join(str(v) for v in value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_table(rows: list[dict]) -> str:
    if not rows:
        return "(empty)\n"
    header = list(rows[0].keys())
    grid = [header]
    for row in rows:
        grid.append([
            f"{round12(v):.12g}" if isinstance(v, float) else str(v)
            for v in (row[k] for k in header)])
    widths = [max(len(r[i]) for r in grid) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in grid]
    return "\n".join(lines) + "\n"


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    if not os.path.isabs(out_path):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            out_path = os.path.join(base, out_path)
    with open(out_path, "w") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the subcommand comes first: no option precedes it
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        tols = _parse_tolerances(args.tol)
        settings = _solver_settings(tols)
        data, rows, code = COMMANDS[args.command](args, tols)
    except (ConfigError, ComplexValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver error: {exc.reason}", file=sys.stderr)
        return EXIT_SOLVER
    except (AmbiguousLiftError,) as exc:
        print(f"lifting error: {exc}", file=sys.stderr)
        return EXIT_LIFT
    except OffSurfaceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    fmt = args.format or "json"
    if fmt == "json":
        payload = {
            "meta": {
                "command": args.command,
                "tolerances": _effective_tolerances(settings, tols),
            },
            "data": _round_floats(data),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        if rows is None:
            print("error: no tabular view for this command", file=sys.stderr)
            return EXIT_CONFIG
        text = _render_csv(_round_floats(rows))
    else:
        if rows is None:
            rows_view = [{"key": k, "value": v}
                         for k, v in sorted(_flatten(data).items())]
        else:
            rows_view = _round_floats(rows)
        text = _render_table(rows_view)
    _write(text, args.out)
    return code


def _flatten(data, prefix=""):
    flat = {}
    if isinstance(data, dict):
        for k, v in data.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(data, (list, tuple)):
        flat[prefix.rstrip(".")] = json.dumps(_round_floats(data))
    else:
        value = round12(data) if isinstance(data, float) else data
        flat[prefix.rstrip(".")] = value
    return flat


if __name__ == "__main__":
    sys.exit(main())
