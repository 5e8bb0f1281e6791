import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebtwist import orbits, pearls
from reebtwist.cli import main
from reebtwist.complexes import ComplexValidationError, homology, quotient_by_action, validate
from reebtwist.f2 import matmul
from reebtwist.geometry import RadialProfile, RotationTwist, RoundSphere
from reebtwist.orbits import (MAX_SPECTRUM_CELLS, TAU_TOL, analytic_spectrum, line_multiplier,
                              line_turns, orbit_multiplier, twisted_index)
from reebtwist.pearls import (
    _window_rows,
    build_pearl_complex,
    circulant,
    compare_with_oracle,
    pearl_layout,
    ring_mul,
    stencils,
    tate_homology,
)

from oracles import tate_by_resolution
from test_cli import twisted_pearls


def all_ones_twist(m, n):
    return RotationTwist(m, tuple([1] * n))


def sphere(m, n, window=(0, 2)):
    """(model, twist, window) of the round sphere under the all-ones twist."""
    return RoundSphere(n), all_ones_twist(m, n), window


def test_stencils():
    norm, circle = stencils(3)
    a = circulant(circle, 3)
    assert a.to_rows() == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
    assert circulant(stencils(2)[0], 2).to_rows() == [[1, 1], [1, 1]]
    # two ones per column in both stencils: composites vanish mod 2
    assert matmul(a, circulant(norm, 3)).is_zero
    assert matmul(circulant(norm, 3), a).is_zero


def test_generator_layout():
    c = build_pearl_complex(*sphere(3, 2, (0, 1)))
    assert c.d_min == 0 and c.d_max == 7
    assert all(c.dim(d) == 3 for d in c.degrees())
    assert c.generators[0][0] == "k0.c1.h0.s0"
    assert c.generators[3][2] == "k0.c2.h1.s2"
    assert c.generators[4][0] == "k1.c1.h0.s0"


def test_boundary_alternation():
    c = build_pearl_complex(*sphere(2, 2, (0, 1)))
    for d in range(1, 8):
        expected = circulant(stencils(2)[d % 2], 2)
        assert c.boundaries[d] == expected


@pytest.mark.parametrize("m", range(1, 13))
@pytest.mark.parametrize("n", [2, 3])
def test_pearl_complex_valid(m, n):
    c = build_pearl_complex(*sphere(m, n))
    validate(c)


@pytest.mark.parametrize("m", range(1, 13))
@pytest.mark.parametrize("n", [2, 3])
def test_unquotiented_complex_acyclic(m, n):
    # the sphere is displaceable: interior homology of the full complex vanishes
    table = homology(build_pearl_complex(*sphere(m, n)))
    assert all(v == 0 for d, v in table.dims.items() if table.reliable[d])


@pytest.mark.parametrize("m,expected", [(2, 1), (3, 0), (4, 1), (5, 0), (6, 1)])
def test_quotient_homology_dichotomy(m, expected):
    for n in (2, 3):
        q = quotient_by_action(build_pearl_complex(*sphere(m, n)))
        table = homology(q)
        dims = {v for d, v in table.dims.items() if table.reliable[d]}
        assert dims == {expected}, (m, n, dims)


def test_untwisted_reduces_to_plain_string():
    c = build_pearl_complex(*sphere(1, 2))
    assert all(c.dim(d) == 1 for d in c.degrees())
    table = homology(quotient_by_action(c))
    assert all(v == 0 for d, v in table.dims.items() if table.reliable[d])


def test_action_is_free_for_nontrivial_orders():
    for m in (2, 3, 5):
        c = build_pearl_complex(*sphere(m, 2))
        for d in c.degrees():
            perm = c.action.perms[d]
            assert all(perm[i] != i for i in range(m))


def test_negative_window_pearls():
    c = build_pearl_complex(*sphere(3, 2, (-2, 0)))
    assert c.d_min == -8 and c.d_max == 3
    validate(c)
    table = homology(c)
    assert all(v == 0 for d, v in table.dims.items() if table.reliable[d])


def test_window_too_small_rejected():
    with pytest.raises(ValueError, match="two pearls"):
        build_pearl_complex(*sphere(2, 2, (1, 1)))


def test_coefficient_count_checked():
    with pytest.raises(ValueError, match="coefficient count"):
        build_pearl_complex(RadialProfile((1.0,)), all_ones_twist(2, 2), (0, 1))


def expected_cells(model, twist, window):
    """Degree -> first generator label, placed from the spectrum rows alone.

    Rows lie between the lowest branch-LO and the highest branch-HI
    multiplier; the row with support s fills mu_tw - s + n + morse, and its
    i-th circle c the two levels at morse 2i and 2i + 1.  With a in [0.5, 2]
    and branches in -1..4, branches -40..40 hold every such row.
    """
    n, a = model.n, model.a
    lo, hi = window

    def mult(j, branch):
        return orbit_multiplier(twist.m, twist.residue(j), branch) / a[j]

    tau_lo = min(mult(j, lo) for j in range(n))
    tau_hi = max(mult(j, hi) for j in range(n))
    cells = {}
    for row in analytic_spectrum(model, twist, (-40, 40)).rows:
        if not tau_lo - 1e-9 <= row.tau <= tau_hi + 1e-9:
            continue
        d = twisted_index(row, a, twist) - len(row.support) + n
        for c in row.support:
            branch = next(b for b in range(-40, 41) if abs(mult(c - 1, b) - row.tau) <= 1e-9)
            for level in (0, 1):
                assert d not in cells, (row, d)
                cells[d] = f"k{branch}.c{c}.h{level}.s0"
                d += 1
    return cells


@settings(max_examples=60, deadline=None)
@given(twisted_pearls(), st.integers(1, 2), st.one_of(
    st.just([1.0] * 3),                                               # sphere
    st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=3, max_size=3),  # resonant
    st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3)))          # generic
def test_pearl_complex_from_the_spectrum(case, width, coeffs):
    # any exponent classes on any ellipsoid: a free, valid complex, acyclic
    # before the quotient and equal to the cyclic-group oracle after it
    m, k, lo = case
    args = RadialProfile(coeffs[:len(k)]), RotationTwist(m, tuple(k)), (lo, lo + width)
    c = build_pearl_complex(*args)
    validate(c)
    assert all(perm[i] != i for perm in c.action.perms.values() for i in range(m))
    full = homology(c)
    assert all(v == 0 for d, v in full.dims.items() if full.reliable[d])
    quotient = homology(quotient_by_action(c))
    oracle = tate_homology(m, (c.d_min, c.d_max))
    assert all(quotient.dims[d] == oracle.dims[d] for d in range(c.d_min + 1, c.d_max))
    cells = expected_cells(*args)
    assert sorted(cells) == list(range(min(cells), max(cells) + 1))
    assert {d: gens[0] for d, gens in c.generators.items()} == cells


def test_near_resonant_rows_stay_contiguous():
    # a_2 = 1 + 5e-10: at tau = +-pi/2 both lines close up within the row
    # tolerance, yet theta_2 misses a multiple of 2 pi by about 1.6e-9; a
    # 1e-9 test on theta_2 took line 2 for nondegenerate and shifted the row
    args = RadialProfile((1.0, 1.0 + 5e-10)), all_ones_twist(2, 2), (0, 2)
    c = build_pearl_complex(*args)
    validate(c)
    assert [c.generators[d][0] for d in c.degrees()] == [
        f"k{branch}.c{circle}.h{level}.s0"
        for branch, circle in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (2, 1)]
        for level in (0, 1)]
    assert compare_with_oracle(*args)["all_match"]


def test_chained_multipliers_give_each_line_one_row():
    # three multipliers about 0.94e-9 apart chain across the 1e-9 row
    # tolerance: line 2 closes up at both rows near tau = -pi/2 and joins
    # only the first, so no circle overwrites a degree of the other row
    a = (1.0, 1.0 - 6e-10, 1.0 - 1.2e-9)
    rows = analytic_spectrum(RadialProfile(a), all_ones_twist(2, 3), (0, 0)).rows
    assert [row.support for row in rows] == [(2, 3), (1,)]
    args = RadialProfile(a), all_ones_twist(2, 3), (0, 2)
    c = build_pearl_complex(*args)
    validate(c)
    circles = [c.generators[d][0].rsplit(".", 2)[0] for d in c.degrees()]
    assert sorted(circles) == sorted(f"k{branch}.c{circle}" for branch in range(3)
                                     for circle in (1, 2, 3) for _ in (0, 1))
    assert compare_with_oracle(*args)["all_match"]


def test_grading_periodicity():
    # shifting the window by one pearl shifts the homology table by 2n
    for m in (2, 3):
        n = 2
        a = homology(quotient_by_action(build_pearl_complex(*sphere(m, n, (0, 2)))))
        b = homology(quotient_by_action(build_pearl_complex(*sphere(m, n, (1, 3)))))
        for d, v in a.dims.items():
            if a.reliable[d]:
                assert b.dims[d + 2 * n] == v
                assert b.reliable[d + 2 * n]


@pytest.mark.parametrize("m,expected", [(1, 0), (2, 1), (3, 0), (4, 1)])
def test_tate_homology_dichotomy(m, expected):
    table = tate_homology(m, (0, 9))
    assert all(v == expected for d, v in table.dims.items() if table.reliable[d])


def test_tate_rejects_bad_order():
    with pytest.raises(ValueError):
        tate_homology(0, (0, 5))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.integers(-20, 20), st.integers(1, 40))
def test_tate_closed_form_equals_the_resolution(m, lo, width):
    # for odd m only an even lowest or an odd highest degree keeps a class
    got = tate_homology(m, (lo, lo + width - 1))
    want = tate_by_resolution(m, (lo, lo + width - 1))
    assert got.dims == want.dims
    assert got.reliable == want.reliable


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3])
def test_oracle_agreement(m, n):
    report = compare_with_oracle(*sphere(m, n))
    assert report["all_match"]
    expected = 1 if m % 2 == 0 else 0
    assert all(e["dim_quotient"] == expected for e in report["degrees"])


def test_comparison_report_json():
    data = compare_with_oracle(*sphere(2, 2))
    assert data.keys() == {"m", "n", "window", "degrees", "all_match"}
    assert data["m"] == 2 and data["n"] == 2 and data["window"] == [0, 2]
    assert all(entry.keys() == {"d", "dim_quotient", "dim_tate", "match"} and entry["match"]
               for entry in data["degrees"])
    assert [entry["d"] for entry in data["degrees"]] == list(range(1, 11))


# -- the window's rows ----------------------------------------------------------

def spread_model(n):
    """Coefficients 1 + 0.0007 j + 1e-5 j^2 under m = 3, all k = 1: each line's
    branches straddle the window at its own multipliers, so the branch window
    that covers [tau_lo, tau_hi] on every line holds about twice the rows kept."""
    return RadialProfile([1 + 0.0007 * j + 1e-5 * j * j for j in range(n)]), all_ones_twist(3, n)


def test_window_builds_only_the_rows_it_keeps(monkeypatch):
    built = []
    row = orbits.SpectrumRow

    def spy(**fields):
        built.append(fields["tau"])
        return row(**fields)

    monkeypatch.setattr(orbits, "SpectrumRow", spy)
    rows = _window_rows(*spread_model(100), (0, 1))
    assert len(rows) == len(built) == 200   # 400 built to keep 200 when filtered after


def test_spectrum_cap_counts_only_the_kept_multipliers():
    # at n = 500 the covering branch window holds 2499 multipliers, 1.25
    # million (row, line) pairs, over the cap; the 1146 kept make 573 000
    model, twist = spread_model(500)
    rows = _window_rows(model, twist, (0, 1))
    assert len(rows) * 500 <= MAX_SPECTRUM_CELLS
    with pytest.raises(ValueError, match="above the cap of"):
        analytic_spectrum(model, twist, (-1, 3))
    assert rows == analytic_spectrum(model, twist, (-1, 3), taus_within=(
        rows[0].tau - TAU_TOL, rows[-1].tau + TAU_TOL)).rows


@st.composite
def separated_spectra(draw):
    """(model, twist, window) whose multipliers are equal or at least 1e-6
    apart: a_j = c_j / 8 with c_j in 4..16 makes every multiplier 8 pi times
    a fraction of denominator m c_j <= 128, so two distinct ones differ by at
    least 8 pi / 128^2, about 1.5e-3."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4))
    units = [k for k in range(-m, 2 * m + 1) if math.gcd(k, m) == 1]
    k = tuple(draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))
    a = draw(st.lists(st.integers(4, 16), min_size=n, max_size=n))
    lo = draw(st.integers(-2, 2))
    return RadialProfile([c / 8 for c in a]), RotationTwist(m, k), (lo, lo + draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(separated_spectra())
def test_window_rows_equal_the_rows_filtered_after(case):
    model, twist, window = case
    a, n = model.a, model.n
    tau_lo = min(line_multiplier(twist, a[j], j, window[0]) for j in range(n))
    tau_hi = max(line_multiplier(twist, a[j], j, window[1]) for j in range(n))
    branches = (min(math.floor(line_turns(tau_lo, a[j], twist, j)) for j in range(n)),
                max(math.ceil(line_turns(tau_hi, a[j], twist, j)) for j in range(n)))
    taus = sorted(line_multiplier(twist, a[j], j, l) for j in range(n)
                  for l in range(branches[0], branches[1] + 1))
    assert all(b - a <= 1e-12 or b - a >= 1e-6 for a, b in zip(taus, taus[1:]))
    after = tuple(r for r in analytic_spectrum(model, twist, branches).rows
                  if tau_lo - TAU_TOL <= r.tau <= tau_hi + TAU_TOL)
    assert _window_rows(model, twist, window) == after


# -- the ring route against the general path ------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(0, 2 ** m - 1), st.integers(0, 2 ** m - 1))))
def test_ring_product_is_the_product_of_circulants(case):
    m, f, g = case
    assert circulant(ring_mul(f, g, m), m) == matmul(circulant(f, m), circulant(g, m))
    assert ring_mul(f, g, m) == ring_mul(g, f, m)


@st.composite
def ring_cases(draw):
    """m <= 64, n <= 4 exponents coprime to m in any classes, LO in -2..2."""
    m = draw(st.integers(1, 64))
    n = draw(st.integers(1, 4))
    units = [k for k in range(-m, 2 * m + 1) if math.gcd(k, m) == 1]
    k = tuple(draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))
    a = draw(st.one_of(st.just([1.0] * n),
                       st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    lo = draw(st.integers(-2, 2))
    return RadialProfile(a), RotationTwist(m, k), (lo, lo + draw(st.integers(1, 2)))


def general_comparison(model, twist, window):
    """(degree, quotient dimension, oracle dimension) from the expanded complex."""
    c = build_pearl_complex(model, twist, window)
    table = homology(quotient_by_action(c))
    oracle = tate_homology(twist.m, (c.d_min, c.d_max))
    return [(d, table.dims[d], oracle.dims[d]) for d in range(c.d_min + 1, c.d_max)]


@settings(max_examples=120, deadline=None)
@given(ring_cases())
def test_ring_route_equals_the_general_path(case):
    try:
        want = general_comparison(*case)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            compare_with_oracle(*case)
        assert str(excinfo.value) == str(exc)
        return
    got = compare_with_oracle(*case)["degrees"]
    assert [(e["d"], e["dim_quotient"], e["dim_tate"]) for e in got] == want


@st.composite
def layout_cases(draw):
    """m <= 40, n <= 4 unit exponents, the sphere or random coefficients, LO in
    -3..2 and 2-4 pearls."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 4))
    units = [k for k in range(-m, 2 * m + 1) if math.gcd(k, m) == 1]
    k = tuple(draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))
    model = draw(st.just(RoundSphere(n))
                 | st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n).map(RadialProfile))
    lo = draw(st.integers(-3, 2))
    return model, RotationTwist(m, k), (lo, lo + draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(layout_cases())
def test_layout_starts_at_an_even_degree(case):
    # so 1 + t joins the two levels of one circle, on which t^k acts alike
    # (at m = 2 the norm is 1 + t too, and every unit exponent is 1 mod 2),
    # and the ring checks pass
    layout = pearl_layout(*case)
    assert layout.d_min % 2 == 0
    m, circle, ks = layout.m, stencils(layout.m)[1], layout.exponents
    assert all(ks[i] % m == ks[i + 1] % m for i, f in enumerate(layout.stencils) if f == circle)
    assert pearls._ring_checks_pass(layout)


def broken_layout(*_args):
    """Three degrees at m = 3 joined by 1 + t twice: (1 + t)^2 = 1 + t^2, not zero."""
    circle = stencils(3)[1]
    return pearls.PearlLayout(3, 0, ("a.s", "b.s", "c.s"), (1, 1, 1), (circle, circle))


def test_a_layout_that_fails_a_ring_check_is_rejected(monkeypatch, capsys):
    monkeypatch.setattr(pearls, "pearl_layout", broken_layout)
    with pytest.raises(ComplexValidationError, match="m = 3 fails d.d = 0"):
        compare_with_oracle(*sphere(3, 2))
    assert main("homology --m 3 --n 2".split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
