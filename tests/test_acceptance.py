"""Acceptance suite: one test per criterion, pinned tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
pass lines on success).
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from reebtwist.complexes import homology, quotient_by_action
from reebtwist.czindex import cz_index_unitary, relative_index
from reebtwist.f2 import F2Matrix, rank
from reebtwist.geometry import RadialProfile, RotationTwist, RoundSphere
from reebtwist.lifting import classify_orbit_loop
from reebtwist.orbits import (
    TwistedOrbit,
    action,
    analytic_spectrum,
    monodromy,
    monodromy_unitary_path,
    orbit_multiplier,
    shoot_orbit,
)
from reebtwist.pearls import build_pearl_complex, compare_with_oracle

from oracles import brute_homology_dim, brute_rank, random_valid_complex, variational_return_map

MS = (2, 3, 4)
NS = (2, 3)
BRANCHES = (0, 1, 2)


def ones_twist(m, n):
    return RotationTwist(m, tuple([1] * n))


def passed(num, text):
    print(f"ACCEPTANCE CRITERION {num}: PASS - {text}")


def random_unit(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def test_criterion_1_spectrum_formula_and_shooting():
    start = time.perf_counter()
    sphere = {n: RoundSphere(n) for n in NS}
    rng = np.random.default_rng(1)
    for m, n in product(MS, NS):
        twist = ones_twist(m, n)
        table = analytic_spectrum(sphere[n], twist, (BRANCHES[0], BRANCHES[-1]))
        expected = [math.pi * (m * k - 1) / m for k in BRANCHES]
        assert table.taus() == pytest.approx(expected, abs=1e-12)
        for k, tau_exact in zip(BRANCHES, expected):
            for offset in (+0.2, -0.2):
                orbit = shoot_orbit(sphere[n], twist, random_unit(rng, n),
                                    tau_exact + offset)
                assert abs(orbit.tau - tau_exact) <= 1e-6, (m, n, k, offset)
                assert orbit.residual <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    passed(1, f"spectrum pi(mk-1)/m exact and shooting within 1e-6 "
              f"({elapsed:.2f}s)")


def test_criterion_2_period_action_equality():
    rng = np.random.default_rng(2)
    checked = 0
    # the second-order chord rule has error tau (2 tau / N)^2 / 6, so at
    # N = 1000 the 1e-5 budget covers multipliers up to about 3 pi / 4:
    # the first two branches; higher branches are certified by shooting
    # and index checks, which do not involve quadrature
    for m, n in product(MS, NS):
        twist = ones_twist(m, n)
        model = RoundSphere(n)
        for k in (0, 1):
            tau_exact = orbit_multiplier(m, 1, k)
            orbit = shoot_orbit(model, twist, random_unit(rng, n), tau_exact + 0.2)
            assert abs(action(orbit, model, quadrature_n=1000) - orbit.tau) <= 1e-5
            checked += 1
    # quadrature convergence order on a representative orbit
    twist = ones_twist(2, 2)
    orbit = TwistedOrbit(z0=np.array([1.0 + 0j, 0j]), tau=orbit_multiplier(2, 1, 1),
                         support=(1,), residual=0.0, component_id="supp(1)|l=1")
    sizes = [250, 500, 1000, 2000]
    errors = [abs(action(orbit, RoundSphere(2), quadrature_n=s) - orbit.tau)
              for s in sizes]
    order = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert order >= 1.9
    passed(2, f"|action - tau| <= 1e-5 on {checked} orbits, "
              f"quadrature order {order:.2f}")


def test_criterion_3_monodromy_degeneracy():
    rng = np.random.default_rng(3)
    for m, n in product(MS, NS):
        twist = ones_twist(m, n)
        model = RoundSphere(n)
        for k in BRANCHES:
            tau = orbit_multiplier(m, 1, k)
            points = [random_unit(rng, n) for _ in range(20)]
            for z in points:
                orbit = TwistedOrbit(z0=z, tau=tau, support=tuple(range(1, n + 1)),
                                     residual=0.0, component_id="x")
                report = monodromy(orbit, model, twist)
                assert report.tangent_deviation <= 1e-6, (m, n, k)
                assert report.kernel_dim_tangent == 2 * n - 1
            # numeric variational route on a couple of the same points
            for z in points[:2]:
                mat = variational_return_map(model, twist, z, tau)
                assert np.max(np.abs(mat - np.eye(2 * n))) <= 1e-6
            # off-spectrum multiplier: no invariant contact directions
            z = points[0]
            off = TwistedOrbit(z0=z, tau=tau + 0.1, support=tuple(range(1, n + 1)),
                               residual=0.0, component_id="x")
            report = monodromy(off, model, twist)
            assert report.kernel_dim_contact == 0
    passed(3, "return map is the identity on the tangent space at spectrum "
              "multipliers; off-spectrum kernels vanish")


def test_criterion_4_index_anchor():
    for n in NS:
        for m in MS:
            for k in range(-2, 4):
                tau = orbit_multiplier(m, 1, k)
                index = cz_index_unitary(monodromy_unitary_path(tau, n))
                assert index == (2 * k - 1) * n, (m, n, k)
        for k in range(-2, 3):
            a = monodromy_unitary_path(orbit_multiplier(2, 1, k + 1), n)
            b = monodromy_unitary_path(orbit_multiplier(2, 1, k), n)
            assert relative_index(a, b) == 2 * n
    passed(4, "orbit paths carry index (2k-1)n; consecutive pearls differ by 2n")


def test_criterion_5_homology_dichotomy():
    start = time.perf_counter()
    for m in (2, 3, 4, 5, 6, 7):
        expected = 1 if m % 2 == 0 else 0
        for n in NS:
            report = compare_with_oracle(RoundSphere(n), ones_twist(m, n), (0, 3))
            assert report["all_match"], (m, n)
            assert all(e["dim_quotient"] == expected for e in report["degrees"]), (m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.1f}s"
    passed(5, f"quotient homology is 1 per degree for even m, 0 for odd m, "
              f"and the cyclic-group oracle agrees ({elapsed:.2f}s)")


def test_criterion_6_unquotiented_acyclicity():
    for m in range(1, 13):
        for n in NS:
            table = homology(build_pearl_complex(RoundSphere(n), ones_twist(m, n), (0, 3)))
            assert all(v == 0 for d, v in table.dims.items() if table.reliable[d]), (m, n)
    passed(6, "interior homology of the full pearl complex vanishes "
              "for m in [1, 12]")


def test_criterion_7_noncontractibility_certificates():
    for m in (2, 4):
        twist = ones_twist(m, 2)
        model = RoundSphere(2)
        orbit = shoot_orbit(model, twist, [1, 0], orbit_multiplier(m, 1, 1))
        result = classify_orbit_loop(orbit, twist, model, samples=128)
        assert result.deck.exponent != 0, m
        assert result.margin > 0
    twist = ones_twist(1, 2)
    orbit = shoot_orbit(RoundSphere(2), twist, [1, 0], orbit_multiplier(1, 1, 2))
    result = classify_orbit_loop(orbit, twist, RoundSphere(2), samples=128)
    assert result.deck.exponent == 0
    passed(7, "projected first-branch orbits lift to nontrivial deck elements "
              "for even m; the untwisted orbit closes up")


def test_criterion_8_oracle_equivalences():
    # GF(2) rank: every matrix up to 4x4, then 200 random 8x8
    checked = 0
    for rows in range(5):
        for cols in range(5):
            mask = (1 << cols) - 1
            for pattern in range(1 << (rows * cols)):
                bits = tuple((pattern >> (cols * i)) & mask for i in range(rows))
                mat = F2Matrix(rows, cols, bits)
                assert rank(mat) == brute_rank(mat.to_rows())
                checked += 1
    rng = np.random.default_rng(8)
    for _ in range(200):
        data = rng.integers(0, 2, size=(8, 8)).tolist()
        assert rank(F2Matrix.from_rows(data)) == brute_rank(data)

    # homology vs exhaustive cycle/boundary enumeration
    from reebtwist.complexes import GradedF2Complex

    for _ in range(30):
        dims, bnds = random_valid_complex(rng, n_degrees=5, max_gens=4)
        gens = {d: tuple(f"x{d}.{i}" for i in range(dims[d])) for d in dims}
        mats = {d: F2Matrix.from_rows(bnds[d], cols=dims[d]) for d in bnds}
        table = homology(GradedF2Complex(0, 4, gens, mats))
        for d in range(1, 4):
            assert table.dims[d] == brute_homology_dim(bnds[d], bnds[d + 1], dims[d])

    # numeric Reeb flow against the closed form on the unit radial profile
    radial = RadialProfile([1.0, 1.0])
    z = random_unit(np.random.default_rng(88), 2)
    times = np.linspace(0.0, math.pi, 13)
    from reebtwist.geometry import reeb_flow_samples

    numeric = reeb_flow_samples(z, times, radial)
    analytic = np.exp(-2j * times)[:, None] * z[None, :]
    worst = float(np.max(np.abs(numeric - analytic)))
    assert worst <= 1e-8
    passed(8, f"rank oracle on {checked} small matrices plus 200 random, "
              f"homology enumeration, flow error {worst:.1e}")
