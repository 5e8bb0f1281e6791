"""Seeded op schedules for the three benchmark workloads.

Each workload is a closed loop with one client: the run issues the ops of
cycle 0, then of cycle 1, and so on, and every op is one
``reebtwist.cli.main(argv)`` call.  A cycle always holds the same op
templates, in a seed-shuffled order, so a run of whole cycles has the same
mix of commands, input sizes and known-defect inputs for every seed; only
the parameters inside each template change with the seed.

Parameters that set an op's cost come from Weyl sequences
``u_c = frac(u_0 + c * golden)`` whose starts ``u_0`` are drawn from the
seed.  The first few cycles of any seed then cover each parameter range
evenly, which keeps the spread between runs low while the inputs still
differ from seed to seed.  Other parameters are drawn from a per-cycle
``random.Random``, which depends only on the workload, the seed and the
cycle number.

Some templates are built to hit two known defects of the CLI:

``residue_seed``
    ``certify`` and ``cz-index`` seed with exponent residue 1 instead of
    the twist's residue, so twists with no exponent congruent to 1 fail
    (``certify``) or print the wrong multipliers (``cz-index``).
``sphere_index``
    ``certify`` reports the round-sphere index even on an ellipsoid; with
    one coefficient above the others the model's closed-form index differs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

WORKLOADS = ("pearl_sweep", "radial_certify", "sphere_mix")


@dataclass
class Op:
    """One CLI call with the closed-form facts its check needs."""

    template: str
    argv: list[str]
    expect: dict
    defect: str | None = None          # known defect the input is built to hit
    props: dict = field(default_factory=dict)


def residue(k: int, m: int) -> int:
    """Exponent class of k normalised into 1..m, as the package defines it."""
    return (k - 1) % m + 1


def coprime_residues(m: int) -> list[int]:
    return [r for r in range(1, m + 1) if math.gcd(r, m) == 1]


def _coprime_k(rng: random.Random, m: int) -> int:
    return rng.choice([k for k in range(1, 2 * m + 1) if math.gcd(k, m) == 1])


def _congruent_k(rng: random.Random, m: int, r: int) -> int:
    """An exponent in class r, sometimes shifted by m so the raw values vary."""
    return r + m * rng.randrange(2)


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _seed_point(z: list[complex]) -> str:
    return ",".join(f"{v:.9f}" for c in z for v in (c.real, c.imag))


class Schedule:
    """Deterministic op cycles of one workload for one seed.

    Input files (model descriptions, quotient loops) are written under
    ``input_dir`` when the cycle that uses them is built.
    """

    def __init__(self, workload: str, seed: int, input_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.input_dir = input_dir
        self._starts: dict[str, float] = {}
        os.makedirs(input_dir, exist_ok=True)
        self._build = {"pearl_sweep": _pearl_cycle,
                       "radial_certify": _radial_cycle,
                       "sphere_mix": _sphere_cycle}[workload]
        self.loops = _write_loop_pool(self) if workload == "sphere_mix" else []

    def rng(self, c: int, what: str = "cycle") -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{what}:{c}")

    def weyl(self, c: int, key: str) -> float:
        """Term c of the seed's Weyl sequence named ``key``, in [0, 1)."""
        if key not in self._starts:
            self._starts[key] = random.Random(
                f"{self.workload}:{self.seed}:start:{key}").random()
        return (self._starts[key] + c * GOLDEN) % 1.0

    def path(self, name: str) -> str:
        return os.path.join(self.input_dir, name)

    def cycle(self, c: int) -> list[Op]:
        rng = self.rng(c)
        ops = self._build(self, c, rng)
        rng.shuffle(ops)
        return ops


# -- pearl_sweep ------------------------------------------------------------------

PEARL_STRATA = 16
PEARL_M_MAX = 256
SWEEP_SPAN = 3           # m values per sweep op
SWEEP_N = (2, 3, 4)


def _homology_op(m: int, n: int, window, template: str = "homology") -> Op:
    lo, hi = window
    return Op(template, ["homology", "--m", str(m), "--n", str(n), f"--window={lo}:{hi}"],
              {"m": m, "n": n, "window": (lo, hi)}, props={"m": m})


def _pearl_cycle(s: Schedule, c: int, rng: random.Random) -> list[Op]:
    ops = []
    # m log-uniform on [2, 256], one value per stratum.  Stratum i's n runs
    # through 2, 3, 4 with the cycle, and each (stratum, n) pair takes m from
    # its own Weyl sequence, offset by a third per n.  The largest ops (top
    # strata, n = 4), which set op_tail_ms, then cover their range evenly
    # within a few cycles whatever the seed.
    for i in range(PEARL_STRATA):
        k = (i + c) % 3
        u = (s.weyl(c // 3, f"m{i}") + k / 3) % 1.0
        m = round(2 * (PEARL_M_MAX / 2) ** ((i + u) / PEARL_STRATA))
        ops.append(_homology_op(m, 2 + k, (0, 3)))
    # one threaded sweep, plus the same grid as serial homology ops
    a = 2 + int(28 * s.weyl(c, "sweep"))
    grid = [(m, n) for m in range(a, a + SWEEP_SPAN) for n in SWEEP_N]
    ops.append(Op("sweep", ["sweep", f"--m-range={a}:{a + SWEEP_SPAN - 1}",
                            "--n-list", _join(SWEEP_N), "--window=0:3"],
                  {"grid": grid, "window": (0, 3)}))
    ops.extend(_homology_op(m, n, (0, 3), "homology.serial") for m, n in grid)
    for j in range(2):
        m = round(3 * 12 ** s.weyl(c, f"complex{j}"))
        n = rng.choice((2, 3))
        lo = rng.choice((-1, 0))
        hi = lo + rng.choice((1, 2))
        ops.append(Op("complex", ["complex", "--m", str(m), "--n", str(n),
                                  f"--window={lo}:{hi}"],
                      {"m": m, "n": n, "window": (lo, hi)}, props={"m": m}))
    return ops


# -- sphere_mix -------------------------------------------------------------------

LOOP_POOL = 16


def _write_loop_pool(s: Schedule) -> list[dict]:
    """Closed quotient loops p -> phi^j(p) through the twist's rotation path."""
    loops = []
    for i in range(LOOP_POOL):
        rng = s.rng(i, "loop")
        m = rng.randint(2, 12)
        n = rng.choice((2, 3))
        k = [rng.choice(coprime_residues(m)) for _ in range(n)]
        j = rng.randint(1, 3)
        p = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        norm = math.sqrt(sum(abs(v) ** 2 for v in p))
        p = [v / norm for v in p]
        # steps stay well below the half-separation sin(pi/m) of the lift rule
        count = 4 * max(k) * j + 8
        samples = []
        for t in range(count + 1):
            pt = [v * complex(math.cos(a), math.sin(a))
                  for v, a in zip(p, (2 * math.pi * kq * j * t / (m * count) for kq in k))]
            samples.append([x for v in pt for x in (v.real, v.imag)])
        name = f"loop{i}.json"
        with open(s.path(name), "w") as fh:
            json.dump({"twist": {"m": m, "k": k}, "samples": samples}, fh)
        loops.append({"path": s.path(name), "m": m, "deck": j % m})
    return loops


def _sphere_cycle(s: Schedule, c: int, rng: random.Random) -> list[Op]:
    ops = []

    def twist():
        m = rng.randint(2, 12)
        n = rng.choice((2, 3))
        return m, n, [_coprime_k(rng, m) for _ in range(n)]

    def window():
        lo = rng.choice((-1, 0, 1))
        return lo, lo + rng.randint(1, 3)

    for _ in range(2):
        m, n, k = twist()
        lo, hi = window()
        ops.append(Op("spectrum", ["spectrum", "--m", str(m), "--k", _join(k), "--n", str(n),
                                   f"--window={lo}:{hi}"],
                      {"m": m, "k": k, "n": n, "window": (lo, hi)}))
    # cz-index on twists whose exponents share one class: class 1 is handled
    # correctly, any other class hits the residue_seed defect
    for r_is_one in (True, False):
        m = rng.randint(2, 12) if r_is_one else rng.randint(3, 12)
        n = rng.choice((2, 3))
        r = 1 if r_is_one else rng.choice(coprime_residues(m)[1:])
        k = [_congruent_k(rng, m, r) for _ in range(n)]
        lo, hi = window()
        ops.append(Op("cz-index", ["cz-index", "--m", str(m), "--k", _join(k), "--n", str(n),
                                   f"--window={lo}:{hi}"],
                      {"m": m, "k": k, "n": n, "window": (lo, hi)},
                      defect=None if r_is_one else "residue_seed",
                      props={"residue": r}))
    for _ in range(2):
        m = rng.randint(2, 12)
        lo = rng.randint(-2, 2)
        hi = lo + rng.randint(2, 9)
        ops.append(Op("tate", ["tate", "--m", str(m), f"--degrees={lo}:{hi}"],
                      {"m": m, "degrees": (lo, hi)}))
    for _ in range(2):
        m = rng.randint(2, 12)
        n = rng.choice((2, 3))
        lo = rng.choice((-1, 0))
        ops.append(_homology_op(m, n, (lo, lo + rng.randint(1, 3))))
    # certify seeds at e_1 with residue 1: fine when k_1 is in class 1
    for _ in range(2):
        m, n, k = twist()
        k[0] = _congruent_k(rng, m, 1)
        ops.append(_sphere_certify(m, n, k, None))
    # no exponent in class 1, and every class at least pi/4 from the seed
    m = rng.randint(5, 12)
    n = rng.choice((2, 3))
    far = [r for r in coprime_residues(m) if min(r - 1, m - r + 1) >= m / 4]
    r = rng.choice(far)
    ops.append(_sphere_certify(m, n, [_congruent_k(rng, m, r) for _ in range(n)],
                               "residue_seed"))
    # orbit from a perturbed seed near the class-r circle of coordinate j0
    for _ in range(2):
        m, n, k = twist()
        j0 = rng.randrange(n)
        r = residue(k[j0], m)
        tau = math.pi * (m * rng.choice((0, 1, 2)) - r) / m
        # noise only on coordinates of j0's class, which stay on the orbit's circle
        z = [complex(rng.gauss(0, 0.02), rng.gauss(0, 0.02)) if residue(kj, m) == r else 0j
             for kj in k]
        z[j0] += 1.0
        tau_seed = tau + rng.choice((-1, 1)) * (0.05 + 0.15 * rng.random())
        ops.append(Op("orbit", ["orbit", "--m", str(m), "--k", _join(k), "--n", str(n),
                                f"--tau={tau_seed:.9f}", f"--z={_seed_point(z)}"],
                      {"m": m, "k": k, "n": n, "coeffs": [1.0] * n, "j0": j0 + 1,
                       "tau": tau}))
    for i in range(2):
        loop = s.loops[int(s.weyl(c, f"loop{i}") * len(s.loops))]
        base = rng.randrange(loop["m"])
        ops.append(Op("lift", ["lift", "--input", loop["path"], "--basepoint", str(base)],
                      {"m": loop["m"], "deck": loop["deck"]}))
    return ops


def _sphere_certify(m: int, n: int, k: list[int], defect: str | None) -> Op:
    return Op("certify", ["certify", "--m", str(m), "--k", _join(k), "--n", str(n)],
              {"m": m, "k": k, "n": n, "coeffs": [1.0] * n}, defect=defect,
              props={"residue": residue(k[0], m)})


# -- radial_certify ---------------------------------------------------------------

def _model_op(s: Schedule, name: str, template: str, m: int, k: list[int],
              profile: dict, cmd: list[str], expect: dict | None = None,
              defect: str | None = None) -> Op:
    n = len(k)
    path = s.path(name)
    with open(path, "w") as fh:
        json.dump({"kind": "radial_profile", "n": n, "twist": {"m": m, "k": k},
                   "profile": profile}, fh)
    if profile["type"] == "constant":
        coeffs = [1.0 / profile["value"] ** 2] * n
    else:
        coeffs = list(profile["coefficients"])
    facts = {"m": m, "k": k, "n": n, "coeffs": coeffs}
    facts.update(expect or {})
    return Op(template, cmd[:1] + ["--model", path] + cmd[1:], facts, defect=defect,
              props={"residue": residue(k[0], m)})


def _ellipsoid(coeffs: list[float]) -> dict:
    return {"type": "ellipsoid", "coefficients": [round(a, 9) for a in coeffs]}


def _radial_cycle(s: Schedule, c: int, rng: random.Random) -> list[Op]:
    """Six shooting ops; what sets their cost depends on the cycle number only.

    A shoot costs 0.6-4 s depending on m, n, the branch and the size of the
    seed's offset, and a run holds only about ten cycles.  Those
    factors are therefore fixed per cycle position, and the seed moves signs,
    coefficient spreads and exponent representatives.  Branch 0
    (``--pearl 0``, tau = -pi/(m a)) keeps the flows short.
    """
    ops = []
    parity = c % 2

    def sign():
        return rng.choice((-1.0, 1.0))

    def twist_k(m, n, r):
        # exponent 1 in class r, the others in other classes: with every exponent
        # in one class the orbits form a degenerate family and shooting can stall
        # for a minute
        others = [q for q in coprime_residues(m) if q != r] or [r]
        return [_congruent_k(rng, m, r)] + [_congruent_k(rng, m, rng.choice(others))
                                            for _ in range(n - 1)]

    def distinct(a1, n):
        """a_1 and n-1 further coefficients 3-8% away from it and from each other."""
        steps = [(0.03 + 0.05 * rng.random()) * (j + 1) * (-1) ** j for j in range(n - 1)]
        return [a1] + [a1 * (1.0 + x) for x in steps]

    # certify from the CLI's seed (e_1 on the surface, residue-1 multiplier);
    # coefficients 2% off 1 put the seed off the orbit, so Gauss-Newton iterates
    for n, m in ((2, 3), (3, 4)):
        ops.append(_model_op(s, f"c{c}_ell{n}.json", "certify.ellipsoid", m, twist_k(m, n, 1),
                             _ellipsoid(distinct(1.0 + 0.02 * sign(), n)),
                             ["certify", "--pearl", "0"]))
    ops.append(_model_op(s, f"c{c}_const.json", "certify.constant", 3, twist_k(3, 2 + parity, 1),
                         {"type": "constant", "value": 1.0 + 0.01 * sign()},
                         ["certify", "--pearl", "0"]))

    # orbit and action from a seed on the circle of coordinate j0 in class m-1,
    # whose multiplier pi/(m a_j0) is short, with tau offset by 0.03
    for kind, n, m in (("orbit", 2, 4), ("action", 3 - parity, 3)):
        k = twist_k(m, n, m - 1)
        coeffs = distinct(1.0 + 0.05 * (2.0 * rng.random() - 1.0), n)
        order = list(range(n))
        rng.shuffle(order)
        k, coeffs = [k[i] for i in order], [coeffs[i] for i in order]
        j0 = order.index(0)
        tau = math.pi / (m * coeffs[j0])
        # off-circle seed components can survive at the 1e-8 solver tolerance and be
        # reported as support, so the seed is perturbed along coordinate j0 only
        z = [0j] * n
        z[j0] = complex(1.0 + rng.gauss(0, 0.01), rng.gauss(0, 0.01))
        ops.append(_model_op(s, f"c{c}_{kind}.json", kind, m, k, _ellipsoid(coeffs),
                             [kind, f"--tau={tau + 0.03 * sign():.9f}",
                              f"--z={_seed_point(z)}"],
                             {"j0": j0 + 1, "tau": tau}))

    # the fixed minority: one op in six is built to hit a known defect,
    # alternating between the two defects from cycle to cycle
    if parity == 0:
        # every exponent in class 3 of m = 4: the nearest multiplier is pi/2 from the seed
        k = [_congruent_k(rng, 4, 3) for _ in range(2)]
        ops.append(_model_op(s, f"c{c}_seed.json", "certify.residue_seed", 4, k,
                             _ellipsoid(distinct(1.0 + 0.02 * sign(), 2)),
                             ["certify", "--pearl", "0"], defect="residue_seed"))
    else:
        a2 = 2.2 + 0.6 * rng.random()     # puts 2 tau a_2 between 2 pi and 4 pi
        ops.append(_model_op(s, f"c{c}_aniso.json", "certify.sphere_index", 2,
                             twist_k(2, 2, 1), _ellipsoid([1.0 + 0.02 * sign(), a2]),
                             ["certify"], defect="sphere_index"))
    return ops
