"""Closed-form oracles for every benchmark op, independent of the package.

A check gets the op, the CLI's exit code and its captured stdout and stderr,
and returns ``(outcome, note)``.  The outcome is ``"ok"`` when the command
exited 0 and its output matches the closed form, ``"defect"`` when the op's
input was built to hit a known defect (see ``workloads.py``) and the output shows
exactly that defect's symptom, and ``"failed"`` for anything else.

The closed forms, for twist exponents k_j of order m and an ellipsoid
sum_j a_j |z_j|^2 = 1 (the round sphere is a_j = 1, a constant profile rho
is a_j = 1/rho^2):

* the Reeb flow is z_j -> exp(-2i a_j t) z_j, so a twisted orbit supported
  on coordinate j has tau * a_j in pi (m Z - k_j) / m;
* its linearised flow rotates coordinate j at rate 2 tau a_j, and a
  rotation by theta has Conley-Zehnder index 2 floor(theta / 2 pi) + 1;
* the Liouville action of a Reeb orbit equals its period tau;
* the quotient pearl homology and the cyclic-group homology are both one
  dimensional per interior degree for even m and zero for odd m.
"""

from __future__ import annotations

import json
import math

from workloads import residue

PI = math.pi
TAU_TOL = 1e-7           # multipliers are certified to the solver's 1e-8 residual
SURFACE_TOL = 1e-7
ACTION_RTOL = 1e-4       # chord-trapezoid quadrature at 1000 samples: ~(2 tau a / 1000)^2 / 6
FLOAT_TOL = 1e-9         # the CLI prints floats at 12 significant digits


def winding(theta: float) -> int:
    """Index of the rotation path t -> exp(-i theta t) on [0, 1]."""
    turns = round(theta / (2 * PI))
    if abs(theta - 2 * PI * turns) <= 1e-9:
        return 2 * turns
    return 2 * math.floor(theta / (2 * PI)) + 1


def model_index(tau: float, coeffs) -> int:
    return sum(winding(2 * tau * a) for a in coeffs)


def sphere_index(tau: float, n: int) -> int:
    """What the package reports on every model: the round-sphere rotation at rate 2 tau."""
    return n * winding(2 * tau)


def in_progression(tau_a: float, m: int, k: int) -> bool:
    """tau * a in pi (m Z - k) / m."""
    x = tau_a * m / PI + k
    return abs(x - m * round(x / m)) <= TAU_TOL * m


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def _pearl_dims(m: int, n: int, window) -> tuple[int, int, int]:
    """First and last degree of the pearl complex, and the quotient dimension."""
    lo, hi = window
    return 2 * lo * n, 2 * hi * n + 2 * n - 1, 1 - m % 2


class Miss(Exception):
    """The output differs from the closed form; carries the facet that differs."""

    def __init__(self, facet: str, detail: str = ""):
        super().__init__(f"{facet}: {detail}" if detail else facet)
        self.facet = facet


def _expect(cond: bool, facet: str, detail: str = "") -> None:
    if not cond:
        raise Miss(facet, detail)


# -- per-command checks; each raises Miss or returns None ---------------------------

def check_spectrum(e: dict, data: dict) -> None:
    m, k, n = e["m"], e["k"], e["n"]
    lo, hi = e["window"]
    classes: dict[int, list[int]] = {}
    for j, kj in enumerate(k):
        classes.setdefault(residue(kj, m), []).append(j + 1)
    want = sorted(
        (PI * (m * l - r) / m, supp) for r, supp in classes.items() for l in range(lo, hi + 1))
    rows = data["rows"]
    _expect(len(rows) == len(want), "rows", f"{len(rows)} rows, want {len(want)}")
    for row, (tau, supp) in zip(rows, want):
        _expect(close(row["tau"], tau), "tau", f"{row['tau']} vs {tau}")
        _expect(row["support"] == supp, "support")
        _expect(row["dim"] == 2 * len(supp) - 1, "dim")
        _expect(row["index"] == sphere_index(tau, n), "index")


def _cz_rows(e: dict, r: int) -> list[tuple[int, float, int]]:
    m, n = e["m"], e["n"]
    lo, hi = e["window"]
    return [(l, PI * (m * l - r) / m, sphere_index(PI * (m * l - r) / m, n))
            for l in range(lo, hi + 1)]


def _match_cz(rows: list[dict], want) -> bool:
    return len(rows) == len(want) and all(
        row["k"] == l and close(row["tau"], tau) and row["index"] == idx
        for row, (l, tau, idx) in zip(rows, want))


def check_cz_index(e: dict, data: dict) -> None:
    # every exponent shares one class r; the multipliers are pi (m l - r)/m
    r = residue(e["k"][0], e["m"])
    _expect(_match_cz(data["rows"], _cz_rows(e, r)), "tau", "multipliers differ from class "
            f"{r}")


def check_tate(e: dict, data: dict) -> None:
    m = e["m"]
    lo, hi = e["degrees"]
    rows = data["degrees"]
    _expect([row["d"] for row in rows] == list(range(lo, hi + 1)), "degrees")
    for row in rows:
        interior = lo < row["d"] < hi
        _expect(row["reliable"] == interior, "reliable")
        if interior:
            _expect(row["dim"] == 1 - m % 2, "dim", f"degree {row['d']}")


def _check_homology_data(m: int, n: int, window, data: dict) -> None:
    d_min, d_max, dim = _pearl_dims(m, n, window)
    rows = data["degrees"]
    _expect([row["d"] for row in rows] == list(range(d_min + 1, d_max)), "degrees")
    for row in rows:
        _expect(row["dim_quotient"] == dim and row["dim_tate"] == dim, "dim",
                f"degree {row['d']}")
    _expect(data["all_match"] is True, "all_match")


def check_homology(e: dict, data: dict) -> None:
    _check_homology_data(e["m"], e["n"], e["window"], data)


def check_sweep(e: dict, data: dict) -> None:
    entries = data["sweep"]
    _expect([(x["m"], x["n"]) for x in entries] == [tuple(p) for p in e["grid"]], "grid")
    for x in entries:
        _check_homology_data(x["m"], x["n"], e["window"], x)
    _expect(data["all_match"] is True, "all_match")


def check_complex(e: dict, data: dict) -> None:
    m, n = e["m"], e["n"]
    d_min, d_max, _ = _pearl_dims(m, n, e["window"])
    _expect(data["degrees"] == [d_min, d_max], "degrees")
    gens = data["generators"]
    _expect(sorted(map(int, gens)) == list(range(d_min, d_max + 1)), "degrees")
    _expect(all(len(v) == m for v in gens.values()), "generators")
    for rows in data["boundaries"].values():
        _expect(len(rows) == m and all(len(row) == m for row in rows), "boundary shape")
    _expect(data["action"]["order"] == m, "action")


def _check_orbit(e: dict, orbit: dict, tau: float) -> None:
    m, k, a = e["m"], e["k"], e["coeffs"]
    supp = orbit["support"]
    _expect(bool(supp), "support")
    if "j0" in e:
        _expect(e["j0"] in supp, "support", f"{supp} misses coordinate {e['j0']}")
    for j in supp:
        _expect(in_progression(tau * a[j - 1], m, k[j - 1]), "tau",
                f"tau a_{j} = {tau * a[j - 1]} not in pi(mZ - {k[j - 1]})/{m}")
    z = orbit["z0"]
    level = sum(a[j] * (z[2 * j] ** 2 + z[2 * j + 1] ** 2) for j in range(len(a)))
    _expect(abs(level - 1.0) <= SURFACE_TOL, "surface", f"level {level}")
    _expect(orbit["residual"] <= 1e-7, "residual")


def _check_action(tau: float, value: float) -> None:
    _expect(abs(value - tau) <= ACTION_RTOL * max(1.0, abs(tau)), "action",
            f"|{value} - {tau}|")


def check_orbit(e: dict, data: dict) -> None:
    _check_orbit(e, data["orbit"], data["orbit"]["tau"])


def check_action(e: dict, data: dict) -> None:
    # the action payload has no orbit point: pin tau to the closed-form multiplier
    # pi (m - k_j0) / (m a_j0) of the seeded circle
    tau = data["tau"]
    _expect(abs(tau - e["tau"]) <= TAU_TOL * max(1.0, abs(tau)), "tau", f"{tau} vs {e['tau']}")
    _check_action(tau, data["action"])
    _expect(close(data["difference"], abs(data["action"] - tau)), "difference")


def check_certify(e: dict, data: dict) -> None:
    tau = data["orbit"]["tau"]
    _check_orbit(e, data["orbit"], tau)
    _check_action(tau, data["action"])
    _expect(data["deck"] % e["m"] != 0 and data["deck_order"] == e["m"], "deck")
    _expect(data["noncontractible"] is True and data["margin"] > 0, "deck")
    _expect(data["index"] == model_index(tau, e["coeffs"]), "index",
            f"printed {data['index']}, closed form {model_index(tau, e['coeffs'])}")


def check_lift(e: dict, data: dict) -> None:
    _expect(data["deck"] == e["deck"] and data["order"] == e["m"], "deck")
    _expect(data["noncontractible"] is (e["deck"] != 0), "deck")
    _expect(data["margin"] > 0, "margin")


CHECKS = {
    "spectrum": check_spectrum, "cz-index": check_cz_index, "tate": check_tate,
    "homology": check_homology, "sweep": check_sweep, "complex": check_complex,
    "orbit": check_orbit, "action": check_action, "certify": check_certify,
    "lift": check_lift,
}


# -- known-defect symptoms -------------------------------------------------------------

EXIT_SOLVER = 3


def _residue_seed_symptom(op, code: int, data: dict | None, miss: Miss | None) -> bool:
    """certify leaves the trust interval; cz-index prints the class-1 multipliers."""
    if op.argv[0] == "certify":
        return code == EXIT_SOLVER
    return code == 0 and _match_cz(data["rows"], _cz_rows(op.expect, 1))


def _sphere_index_symptom(op, code: int, data: dict | None, miss: Miss | None) -> bool:
    """Everything checks out except the index, which is the round-sphere one."""
    if code != 0 or miss is None or miss.facet != "index":
        return False
    tau = data["orbit"]["tau"]
    return data["index"] == sphere_index(tau, op.expect["n"])


SYMPTOMS = {"residue_seed": _residue_seed_symptom, "sphere_index": _sphere_index_symptom}


def classify(op, code, out: str, err: str) -> tuple[str, str]:
    data = miss = None
    if code == 0:
        try:
            data = json.loads(out)["data"]
            CHECKS[op.argv[0]](op.expect, data)
            return "ok", ""
        except Miss as exc:
            miss = exc
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return "failed", f"unreadable output: {exc!r}"
        note = str(miss)
    else:
        note = f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    if op.defect and SYMPTOMS[op.defect](op, code, data, miss):
        return "defect", note
    return "failed", note
