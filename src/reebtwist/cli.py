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
import gc
import json
import math
import os
import re
import sys

from .complexes import MAX_BOUNDARY_ENTRIES, ComplexValidationError
from .geometry import (
    OffSurfaceError,
    RadialProfile,
    RotationTwist,
    RoundSphere,
    capped_dimension,
    float_sized,
    load_model,
)
from .lazy import lazy_module
from .lifting import AmbiguousLiftError, QuotientLoop, classify_orbit_loop, lift_loop
from .orbits import (
    ConvergenceError,
    SolverSettings,
    action,
    analytic_spectrum,
    line_multiplier,
    orbit_index,
    shoot_orbit,
)
from .pearls import build_pearl_complex, compare_with_oracle, tate_homology

np = lazy_module("numpy")

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


def _ints_only(items) -> bool:
    """Whether every item is of type exactly ``int``: no bool, no float, and not empty."""
    return set(map(type, items)) == {int}


def _round_floats(obj):
    """A copy of ``obj`` for ``--format csv|table`` under the rule ``_dump`` writes
    JSON by: floats at 12 significant digits, an unbounded one (the trivial
    group's lift margin) None.  A list or tuple of ints alone, as a matrix row,
    comes back as it is; any other tuple becomes a list."""
    if isinstance(obj, float):
        return None if math.isinf(obj) else round12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if not isinstance(obj, (list, tuple)) or _ints_only(obj):
        return obj
    return [_round_floats(v) for v in obj]


# -- argument handling ----------------------------------------------------------
#
# Every flag's parser ``type`` returns the value its command uses, so a bad
# value stops the parse with exit 2 before any command runs, and a config
# file's keys, parsed as flags, are checked the same way.

# a message shows at most this many characters of the value it rejects
ECHO_CHARS = 40


def _echo(value: str | int) -> str:
    """``value`` as a message shows it, a string quoted and an integer bare; one longer
    than ``ECHO_CHARS`` characters is cut there and its full length named."""
    text = str(value)
    shown = text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."
    shown = repr(shown) if isinstance(value, str) else shown
    return shown if len(text) <= ECHO_CHARS else f"{shown} ({len(text)} characters)"


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need an integer, got {_echo(text)}") from None


def _checked(rule, value: int, what: str) -> int:
    """``value`` if it passes the geometry ``rule``, whose ValueError stops the parse."""
    try:
        return rule(value, what)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _branch(text: str) -> int:
    return _checked(float_sized, _integer(text), "branch")


def _count_at_least(low: int, what: str):
    """Parser of an integer flag that rejects values below ``low``."""
    def parse(text: str) -> int:
        count = _integer(text)
        if count < low:
            raise argparse.ArgumentTypeError(f"need at least {low} {what}, got {_echo(count)}")
        return count
    return parse


# one sample step is a single chord, too coarse to integrate over or lift
_sample_count = _count_at_least(2, "samples")
_positive_dimension = _count_at_least(1, "complex coordinate")
_modulus = _count_at_least(1, "group element")


def _dimension(text: str) -> int:
    return _checked(capped_dimension, _positive_dimension(text), "complex dimension")


def _finite_float(text: str) -> float:
    # nan or inf would reach the solver's linear algebra
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {_echo(text)}")
    return value


def _comma_separated(item):
    """Parser of a comma-separated flag into the tuple of its ``item`` values."""
    return lambda text: tuple(item(x) for x in text.split(","))


def _exponents(text: str) -> tuple[int, ...]:
    """``--k``, one exponent per coordinate: at most ``MAX_DIMENSION`` of them."""
    k = _comma_separated(_integer)(text)
    _checked(capped_dimension, len(k), "exponent count")
    return k


def _window(what: str):
    """Parser of an inclusive integer window ``LO:HI`` into ``(lo, hi)``."""
    def parse(text: str) -> tuple[int, int]:
        try:
            lo, hi = (int(x) for x in text.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {_echo(text)}, expected LO:HI") from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty {what} {_echo(text)}: LO exceeds HI")
        return _checked(float_sized, lo, what), _checked(float_sized, hi, what)
    return parse


def _m_range(text: str) -> tuple[int, int]:
    """``--m-range LO:HI``, whose LO must be a valid ``--m``."""
    lo, hi = _window("m range")(text)
    return _modulus(str(lo)), hi


def _tolerance(text: str) -> tuple[str, float]:
    """``NAME=VALUE`` into a ``SolverSettings`` field name and a finite positive value."""
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"bad tolerance override {_echo(text)}, "
                                         "expected NAME=VALUE")
    name = name.strip()
    if name not in {f.name for f in dataclasses.fields(SolverSettings)}:
        raise argparse.ArgumentTypeError(f"unknown tolerance name {_echo(name)}")
    number = _finite_float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"need a positive tolerance, got {_echo(text)}")
    return name, number


# Each flag's parser settings, declared once.  A command takes the flags it
# names in ``COMMANDS``, then the ``SHARED`` ones.
FLAGS = {
    "m": dict(type=_modulus, help="rotation order"),
    "k": dict(type=_exponents, help="comma-separated rotation exponents"),
    "n": dict(type=_dimension, help="complex dimension"),
    "model": dict(type=str, help="model description JSON file"),
    "window": dict(type=_window("window"), help="inclusive integer window LO:HI"),
    "tau": dict(type=_finite_float, help="multiplier seed"),
    "z": dict(type=_comma_separated(_finite_float),
              help="seed point, comma-separated interleaved reals"),
    "pearl": dict(type=_branch, help="spectrum branch"),
    "samples": dict(type=_sample_count, help="points sampled along the orbit"),
    "degrees": dict(type=_window("degrees"), help="degree window LO:HI"),
    "input": dict(type=str, help="loop JSON file"),
    "basepoint": dict(type=_integer, help="rotation power of the lift's start point"),
    "m-range": dict(type=_m_range, help="LO:HI in m"),
    "n-list": dict(type=_comma_separated(_dimension), help="comma-separated n"),
    "config": dict(type=str, help="JSON config mirroring the flags; flags win"),
    "tol": dict(type=_tolerance, action="append", metavar="NAME=VALUE", help="tolerance override"),
    "format": dict(choices=("json", "csv", "table"), help="output format"),
    "out": dict(type=str, help="output path"),
}
SHARED = dict.fromkeys(("config", "tol", "format", "out"))


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1:2`` into ``--flag=-1:2``.

    argparse reads a token that starts with a minus sign as an option unless
    it is a plain number, so ``--window -1:2`` and ``--z -0.6,0,0.8,0`` would
    stop the parse; no option starts with a minus sign and a digit, so such a
    token is the value of the flag before it.
    """
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--[\w-]+", out[-1]) and re.match(r"-\.?\d", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _read_input(path: str, what: str, parse=lambda data: data):
    """``parse`` of the JSON in ``path``, the one reader of input files: a bad file, a
    missing key or a misshapen container is a ``ConfigError``; ``parse``'s ValueError passes."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    try:
        return parse(data)
    except KeyError as exc:
        raise ConfigError(f"{what} file lacks the key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed {what} file: {exc}") from None


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The config file's keys as flag tokens, to be parsed before the user's flags.

    Parsed that way, every key passes the flag's own validation and the
    command line's flags win; a list becomes one token per item for an
    appending flag (``tol``) and a comma-joined value otherwise.
    """
    cfg = _read_input(args.config, "config")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise ConfigError(f"unknown config key {_echo(key)}")
        if isinstance(getattr(args, attr), list):
            items = value if isinstance(value, list) else [value]
        else:
            items = [",".join(map(str, value)) if isinstance(value, list) else value]
        tokens.extend(f"--{attr.replace('_', '-')}={item}" for item in items)
    return tokens


def _needed(args, flag: str):
    """A flag the command needs, checked when it runs so a config file may supply it."""
    value = getattr(args, flag)
    if value is None:
        raise ConfigError(f"{args.command} needs --{flag}")
    return value


def _resolve_geometry(args) -> tuple[RadialProfile, RotationTwist]:
    """Model and twist from --model / --m / --k / --n; without a model file the
    model is the round sphere."""
    if args.k is not None and args.m is None:
        raise ConfigError("--k needs --m")
    model = twist = None
    if args.model:
        model, twist = _read_input(args.model, "model", load_model)
    if args.m is not None:
        if args.k is None:
            n = args.n or (model.n if model else None)
            if n is None:
                raise ConfigError("need --k or --n alongside --m")
            k = (1,) * n
        else:
            k = args.k
        twist = RotationTwist(m=args.m, k=k)
    if twist is None:
        raise ConfigError("no twist given: pass --m/--k or a model file with one")
    if (model is not None and model.n != twist.n) or (args.n and args.n != twist.n):
        raise ConfigError("dimension mismatch between model, twist and --n")
    return (RoundSphere(twist.n) if model is None else model), twist


def _seed_point(values: tuple[float, ...] | None, n: int) -> np.ndarray:
    if values is None:
        z = np.zeros(n, dtype=complex)
        z[0] = 1.0
        return z
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

def cmd_spectrum(args, settings):
    table = analytic_spectrum(*_resolve_geometry(args), args.window)
    return {"rows": table.to_json_rows(), "window": list(args.window)}, EXIT_OK


def cmd_orbit(args, settings):
    model, twist = _resolve_geometry(args)
    orbit = shoot_orbit(model, twist, _seed_point(args.z, twist.n), _needed(args, "tau"),
                        settings=settings)
    return {"orbit": _orbit_payload(orbit)}, EXIT_OK


def cmd_action(args, settings):
    model, twist = _resolve_geometry(args)
    orbit = shoot_orbit(model, twist, _seed_point(args.z, twist.n), _needed(args, "tau"),
                        settings=settings)
    value = action(orbit, model, quadrature_n=args.samples, settings=settings)
    return {"tau": orbit.tau, "action": value,
            "difference": abs(value - orbit.tau), "samples": args.samples}, EXIT_OK


def cmd_cz_index(args, settings):
    model, twist = _resolve_geometry(args)
    a = model.a
    rows = []
    for k in range(args.window[0], args.window[1] + 1):
        tau = line_multiplier(twist, a[0], 0, k)
        rows.append({"k": k, "tau": tau, "index": orbit_index(tau, a)})
    return {"rows": rows}, EXIT_OK


def _check_stencils(m: int) -> None:
    """ConfigError unless a pearl complex's two m x m stencils fit under
    ``MAX_BOUNDARY_ENTRIES``; called before either is built."""
    if 2 * m * m > MAX_BOUNDARY_ENTRIES:
        raise ConfigError(f"rotation order {_echo(m)} needs 2 m^2 stencil entries, "
                          f"above the cap of {MAX_BOUNDARY_ENTRIES}")


def _pearl_geometry(args) -> tuple[RadialProfile, RotationTwist]:
    model, twist = _resolve_geometry(args)
    _check_stencils(twist.m)
    return model, twist


def cmd_complex(args, settings):
    return build_pearl_complex(*_pearl_geometry(args), args.window).to_json_dict(), EXIT_OK


def cmd_homology(args, settings):
    report = compare_with_oracle(*_pearl_geometry(args), args.window)
    return report, (EXIT_OK if report["all_match"] else EXIT_MISMATCH)


def cmd_tate(args, settings):
    table = tate_homology(_needed(args, "m"), args.degrees)
    rows = [{"d": d, "dim": table.dims[d], "reliable": table.reliable[d]}
            for d in sorted(table.dims)]
    return {"m": args.m, "degrees": rows}, EXIT_OK


def cmd_lift(args, settings):
    loop = _read_input(_needed(args, "input"), "loop", QuotientLoop.from_json_dict)
    result = lift_loop(loop, basepoint_choice=args.basepoint, match_tol=settings.lift_match)
    return result.certificate(), EXIT_OK


def cmd_certify(args, settings):
    model, twist = _resolve_geometry(args)
    a = model.a
    tau_seed = line_multiplier(twist, a[0], 0, args.pearl)
    orbit = shoot_orbit(model, twist, _seed_point(None, twist.n), tau_seed, settings=settings)
    value = action(orbit, model, settings=settings)
    index = orbit_index(orbit.tau, a)
    result = classify_orbit_loop(orbit, twist, model, samples=args.samples, settings=settings)
    return {
        "orbit": _orbit_payload(orbit),
        "action": value,
        "index": index,
        "deck": result.deck.exponent,
        "deck_order": result.deck.order,
        "noncontractible": not result.contractible,
        "margin": result.margin,
    }, EXIT_OK


def cmd_sweep(args, settings):
    m_lo, m_hi = args.m_range
    _check_stencils(m_hi)
    model = _read_input(args.model, "model", load_model)[0] if args.model else None
    if model is not None and set(args.n_list) != {model.n}:
        raise ConfigError(f"--n-list must hold only the model's n = {model.n}")
    results = [compare_with_oracle(model or RoundSphere(n), RotationTwist(m, (1,) * n),
                                   args.window)
               for m in range(m_lo, m_hi + 1) for n in args.n_list]
    ok = all(r["all_match"] for r in results)
    return {"sweep": results, "all_match": ok}, (EXIT_OK if ok else EXIT_MISMATCH)


GEOMETRY = dict.fromkeys(("m", "k", "n", "model"))

# name: (handler, help, each flag the command takes beyond SHARED with its
# default, the data key that --format csv|table prints)
COMMANDS = {
    "spectrum": (cmd_spectrum, "closed-form twisted spectrum table",
                 {**GEOMETRY, "window": (0, 3)}, "rows"),
    "orbit": (cmd_orbit, "shoot and certify a twisted orbit",
              {**GEOMETRY, "tau": None, "z": None}, None),
    "action": (cmd_action, "Liouville action of a certified orbit",
               {**GEOMETRY, "tau": None, "z": None, "samples": 1000}, None),
    "cz-index": (cmd_cz_index, "index of orbit linearization paths",
                 {**GEOMETRY, "window": (0, 3)}, "rows"),
    "complex": (cmd_complex, "build the pearl chain complex", {**GEOMETRY, "window": (0, 2)}, None),
    "homology": (cmd_homology, "quotient homology with oracle check",
                 {**GEOMETRY, "window": (0, 3)}, "degrees"),
    "tate": (cmd_tate, "cyclic-group homology oracle table",
             {"m": None, "degrees": (0, 9)}, "degrees"),
    "lift": (cmd_lift, "lift a quotient loop and classify it", {"input": None, "basepoint": 0}, None),
    "certify": (cmd_certify, "orbit + noncontractibility certificate",
                {**GEOMETRY, "pearl": 1, "samples": 256}, None),
    "sweep": (cmd_sweep, "homology comparison over a parameter grid",
              {"model": None, "window": (0, 3), "m-range": (2, 6), "n-list": (2,)}, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reebtwist", description="twisted Reeb orbits, indices and equivariant homology")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, defaults, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)  # else --n reads as --n-list
        for flag, default in (*defaults.items(), *SHARED.items()):
            # --tol appends to a fresh list in every parser
            p.add_argument(f"--{flag}", default=[] if flag == "tol" else default, **FLAGS[flag])
    return parser


# -- output -------------------------------------------------------------------------
#
# One rounding rule serves every format: a float at 12 significant digits, an
# unbounded one null.  JSON text comes from ``_json_text`` alone, which applies
# the rule as it writes each float; ``main`` rounds a copy with ``_round_floats``
# only for ``--format csv|table``, whose renderers format what it returns
# (stdlib ``json`` still parses input files and writes the table view's
# compact lists).

def _json_text(obj) -> str:
    """``json.dumps(_round_floats(obj), indent=2, sort_keys=True, allow_nan=False)``,
    character for character, in one pass and without a copy: a list of ints alone
    is one join in C, where Python's indenting encoder calls back per item, and a
    list of lists that ``obj`` holds more than once at one depth, as a pearl
    complex's degrees hold a stencil's rows, is written once there and its text
    kept until its last use.  NaN raises ValueError.  Keys must be strings, as
    every payload's are.
    """
    uses: dict[tuple[int, int], int] = {}
    _count_lists(obj, 1, uses)
    return _dump(obj, "\n", uses, {})


_CONTAINER_TYPES = frozenset((dict, list, tuple))


def _count_lists(obj, width: int, uses: dict[tuple[int, int], int]) -> None:
    """Count into ``uses`` how often ``_dump`` meets each list of lists in ``obj``, by
    ``id`` and the width of its indent; ``_dump`` writes the items of such a list once
    per width, and those of a dict or any other list every time.  Only a list whose
    first item is a list or tuple is counted, as a matrix's rows are: a payload
    shares those, and an entry per list of dicts would only cost memory."""
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)) and obj and not _ints_only(obj):
        if isinstance(obj[0], (list, tuple)):
            key = (id(obj), width)
            uses[key] = uses.get(key, 0) + 1
            if uses[key] > 1:
                return
        items = obj
    else:
        return
    if _CONTAINER_TYPES.isdisjoint(map(type, items)):  # scalars alone: nothing to count
        return
    width += 2
    for v in items:
        if isinstance(v, (dict, list, tuple)):
            _count_lists(v, width, uses)


def _dump(obj, indent: str, uses: dict[tuple[int, int], int],
          texts: dict[tuple[int, int], str]) -> str:
    """``obj``'s text at ``indent``; ``uses`` counts the uses left of each list of lists
    by ``id`` and indent width, and ``texts`` holds the text of those with uses left."""
    if isinstance(obj, str):
        return json.encoder.encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return "null" if math.isinf(obj) else float.__repr__(round12(obj))
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (json.encoder.encode_basestring_ascii(k) + ": " + _dump(v, inner, uses, texts)
                 for k, v in sorted(obj.items()))
        return f"{{{inner}{sep.join(items)}{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _ints_only(obj):
            return f"[{inner}{sep.join(map(int.__repr__, obj))}{indent}]"
        key = (id(obj), len(indent))
        text = texts.pop(key, None)
        if text is None:
            items = (_dump(v, inner, uses, texts) for v in obj)
            text = f"[{inner}{sep.join(items)}{indent}]"
        if uses.get(key, 1) > 1:
            uses[key] -= 1
            texts[key] = text
        return text
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
                cells.append(f"{value:.12g}")
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
        grid.append([f"{v:.12g}" if isinstance(v, float) else str(v)
                     for v in (row[k] for k in header)])
    widths = [max(len(r[i]) for r in grid) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in grid]
    return "\n".join(lines) + "\n"


def _flatten(data, prefix=""):
    flat = {}
    if isinstance(data, dict):
        for k, v in data.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(data, list):
        flat[prefix.rstrip(".")] = json.dumps(data)
    else:
        flat[prefix.rstrip(".")] = data
    return flat


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # a full disk or closed pipe shows here, not at exit
        return
    if not os.path.isabs(out_path):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            out_path = os.path.join(base, out_path)
    with open(out_path, "w") as fh:
        fh.write(text)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed, with a ``--config`` file's flags after the subcommand.

    argparse links every action back to its container, so the parser is
    cyclic garbage once this returns.  No collection runs while it lives:
    one would move it to an older generation, and a process that calls
    ``main`` again and again would pile parsers up there until a full
    collection walked them together with everything else the process holds.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            # the subcommand comes first: no option precedes it
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        return args
    finally:
        if collecting:
            gc.enable()


def main(argv=None) -> int:
    argv = _bind_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse(argv)
        settings = dataclasses.replace(SolverSettings(), **dict(args.tol))
        handler, _, _, tabular = COMMANDS[args.command]
        if args.format == "csv" and tabular is None:
            raise ConfigError("no tabular view for this command")
        data, code = handler(args, settings)
    except (ConfigError, ComplexValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver error: {exc.reason}", file=sys.stderr)
        return EXIT_SOLVER
    except AmbiguousLiftError as exc:
        print(f"lifting error: {exc}", file=sys.stderr)
        return EXIT_LIFT
    except OffSurfaceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    fmt = args.format or "json"
    if fmt == "json":
        payload = {
            "meta": {"command": args.command, "tolerances": dataclasses.asdict(settings)},
            "data": data,
        }
        text = _json_text(payload) + "\n"
    elif fmt == "csv":
        text = _render_csv(_round_floats(data[tabular]))
    else:
        data = _round_floats(data)
        rows = data[tabular] if tabular else [{"key": k, "value": v}
                                              for k, v in sorted(_flatten(data).items())]
        text = _render_table(rows)
    try:
        _write(text, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
