import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebtwist import geometry
from reebtwist.geometry import RadialProfile, RotationTwist, RoundSphere
from reebtwist.lifting import (
    AmbiguousLiftError,
    DeckElement,
    QuotientLoop,
    classify_orbit_loop,
    lift_loop,
    orbit_separation,
)
from reebtwist.orbits import TwistedOrbit, orbit_multiplier

from oracles import lift_by_norms, lift_by_pairs

SPHERE2 = RoundSphere(2)


def reeb_arc(twist, power=1, samples=64, z=None):
    """Arc along the flow circle from z to the power-th rotation of z."""
    if z is None:
        z = np.array([1.0 + 0j, 0j])
    # e^{-2 i tau} z = phi^power(z) with tau picked in the principal range
    tau = -math.pi * (twist.k[0] * power % twist.m) / twist.m
    t = np.linspace(0.0, 1.0, samples)
    return np.stack([np.exp(-2j * tau * s) * z for s in t])


def make_loop(samples, twist):
    return QuotientLoop(samples=samples, twist=twist)


def lifted_path(result, loop):
    """The lifted path, each sample at the rotation power the lift chose for it."""
    return loop.twist.phase_table()[list(result.powers)] * loop.samples


def join(a, b, twist, power):
    """Samples of a, then those of b rotated by the power-th twist to start where a ends."""
    shifted = b * twist.phases(power)[None, :]
    np.testing.assert_allclose(shifted[0], a[-1], atol=1e-12)
    return np.concatenate([a, shifted[1:]])


def test_constant_loop_has_trivial_deck():
    twist = RotationTwist(3, (1, 1))
    z = np.array([0.6 + 0j, 0.8j])
    loop = make_loop(np.repeat(z[None, :], 10, axis=0), twist)
    result = lift_loop(loop)
    assert result.deck == DeckElement(0, 3)
    assert result.contractible
    np.testing.assert_allclose(lifted_path(result, loop), loop.samples)


def test_reeb_arc_detects_generator():
    twist = RotationTwist(2, (1, 1))
    arc = reeb_arc(twist)
    np.testing.assert_allclose(arc[-1], twist.apply(arc[0]), atol=1e-12)
    result = lift_loop(make_loop(arc, twist))
    assert result.deck == DeckElement(1, 2)
    assert not result.contractible
    assert result.margin > 0


def test_m_fold_concatenation_closes_up():
    twist = RotationTwist(3, (1, 1))
    arc = reeb_arc(twist)
    samples = arc
    for power in range(1, twist.m):
        samples = join(samples, arc, twist, power)
    result = lift_loop(make_loop(samples, twist))
    # the m-th power of the generator is trivial in the deck group
    assert result.deck == DeckElement(0, 3)


def test_power_twisted_orbit_classifies_to_power():
    twist = RotationTwist(4, (1, 1))
    arc = reeb_arc(twist, power=2, samples=128)
    np.testing.assert_allclose(arc[-1], twist.apply(arc[0], power=2), atol=1e-12)
    result = lift_loop(make_loop(arc, twist))
    assert result.deck == DeckElement(2, 4)


def test_classify_certified_orbit():
    twist = RotationTwist(2, (1, 1))
    orbit = TwistedOrbit(z0=np.array([1.0 + 0j, 0j]),
                         tau=orbit_multiplier(2, 1, 1), support=(1,),
                         residual=0.0, component_id="supp(1)|l=1")
    result = classify_orbit_loop(orbit, twist, SPHERE2, samples=128)
    assert result.deck == DeckElement(1, 2)
    cert = result.certificate()
    assert cert["noncontractible"] and cert["margin"] > 0


def test_classify_untwisted_orbit_is_trivial():
    twist = RotationTwist(1, (1, 1))
    orbit = TwistedOrbit(z0=np.array([1.0 + 0j, 0j]),
                         tau=orbit_multiplier(1, 1, 2), support=(1,),
                         residual=0.0, component_id="supp(1)|l=2")
    result = classify_orbit_loop(orbit, twist, SPHERE2, samples=128)
    assert result.deck == DeckElement(0, 1)
    assert result.contractible


def test_lift_project_identity():
    # mixed exponent classes: orbits are supported in a single class,
    # here the first coordinate (residue 1)
    twist = RotationTwist(3, (1, 2))
    arc = reeb_arc(twist, samples=80, z=np.array([1.0 + 0j, 0j]))
    np.testing.assert_allclose(arc[-1], twist.apply(arc[0]), atol=1e-12)
    loop = make_loop(arc, twist)
    result = lift_loop(loop, basepoint_choice=0)
    # projecting the lift recovers the input representatives up to rotations
    for lifted, rep in zip(lifted_path(result, loop), loop.samples):
        dists = [np.linalg.norm(lifted - twist.apply(rep, power=j))
                 for j in range(twist.m)]
        assert min(dists) < 1e-12


def test_deck_element_independent_of_basepoint():
    twist = RotationTwist(4, (1, 1))
    arc = reeb_arc(twist, samples=96)
    loop = make_loop(arc, twist)
    # a basepoint is taken mod m, so a huge one loses no phase precision
    decks = {lift_loop(loop, basepoint_choice=j).deck.exponent
             for j in (*range(twist.m), 10**15 + 1)}
    assert len(decks) == 1


def test_concatenation_is_homomorphism():
    twist = RotationTwist(5, (1, 1))
    arc1 = reeb_arc(twist, power=1, samples=128)
    arc2 = reeb_arc(twist, power=2, samples=128)
    d1 = lift_loop(make_loop(arc1, twist)).deck
    d2 = lift_loop(make_loop(arc2, twist)).deck
    joined = lift_loop(make_loop(join(arc1, arc2, twist, 1), twist)).deck
    assert joined == DeckElement(d1.exponent + d2.exponent, twist.m)


def test_refinement_stability():
    twist = RotationTwist(3, (1, 1))
    coarse = make_loop(reeb_arc(twist, samples=24), twist)
    fine = make_loop(reeb_arc(twist, samples=48), twist)
    assert lift_loop(coarse).deck == lift_loop(fine).deck


def test_undersampled_loop_rejected():
    twist = RotationTwist(2, (1, 1))
    arc = reeb_arc(twist, samples=3)  # steps of length about sqrt(2)
    with pytest.raises(AmbiguousLiftError, match="not below the half-separation bound"):
        lift_loop(make_loop(arc, twist))


def test_deck_is_the_nearest_rotation():
    # the end lies on the rotated start, 2 from the start itself: with a
    # tolerance above 2 the first power within it once gave deck 0
    twist = RotationTwist(2, (1, 1))
    loop = make_loop(reeb_arc(twist), twist)
    assert lift_loop(loop, match_tol=5.0).deck == DeckElement(1, 2)


def test_unclosed_lift_names_the_nearest_distance():
    # a sixth of the flow circle: 1 from the start, sqrt(3) from its rotation;
    # the failure once read as a step-bound violation
    twist = RotationTwist(2, (1, 1))
    arc = np.stack([np.exp(1j * math.pi / 3 * s) * np.array([1.0 + 0j, 0j])
                    for s in np.linspace(0.0, 1.0, 32)])
    with pytest.raises(AmbiguousLiftError,
                       match=r"^lift ends 1\.000e\+00 from the nearest rotation of its start, "
                             r"beyond lift_match 1\.000e-06$"):
        lift_loop(make_loop(arc, twist))


def test_orbit_separation_value():
    twist = RotationTwist(2, (1, 1))
    pts = np.array([[1.0 + 0j, 0j]])
    # antipodal rotation: separation 2
    assert orbit_separation(twist, pts) == pytest.approx(2.0)
    assert orbit_separation(RotationTwist(1, (1,)), np.array([[1.0 + 0j]])) == np.inf


def test_deck_group_law():
    # exponents are taken mod the group order
    assert DeckElement(3 + 2, 4) == DeckElement(1, 4)
    assert DeckElement(-1, 4) == DeckElement(3, 4)
    with pytest.raises(ValueError):
        DeckElement(1, 0)


def test_loop_json_round_trip():
    twist = RotationTwist(2, (1, 1))
    loop = make_loop(reeb_arc(twist), twist)
    back = QuotientLoop.from_json_dict(loop.to_json_dict())
    assert back.twist == loop.twist
    np.testing.assert_allclose(back.samples, loop.samples)


def test_loop_validation():
    twist = RotationTwist(2, (1, 1))
    with pytest.raises(ValueError, match="unit sphere"):
        QuotientLoop(samples=np.array([[2.0 + 0j, 0j], [2.0 + 0j, 0j]]), twist=twist)
    with pytest.raises(ValueError, match="at least two"):
        QuotientLoop(samples=np.array([[1.0 + 0j, 0j]]), twist=twist)


def test_nan_sample_is_off_the_sphere():
    # its norm fails every comparison, so the loop was once accepted and
    # lifted to a deck element with margin nan
    twist = RotationTwist(2, (1, 1))
    samples = reeb_arc(twist)
    samples[5, 0] = math.nan
    with pytest.raises(ValueError, match="^samples must lie on the unit sphere$"):
        make_loop(samples, twist)


@st.composite
def quotient_loops(draw, max_m=12, max_n=4, counts=st.one_of(st.integers(2, 12),
                                                             st.integers(40, 200)),
                   off_sphere=False):
    """A loop from z to a rotation of z, each sample a random representative.

    Coordinate j turns by 2 pi (k_j p / m + l_j) plus an end offset that
    leaves the lift within or beyond lift_match; few samples leave some
    steps above the half-separation bound.  The order m is at most 12, or
    at most ``max_m`` in about half the draws; n is at most ``max_n`` and
    the sample count is drawn from ``counts``.  With ``off_sphere`` each
    sample is scaled by 1 + u, |u| <= 1e-6, as far off the sphere as a loop
    may lie.
    """
    m = draw(st.integers(1, 12) | st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    k = tuple(draw(st.lists(st.sampled_from([e for e in range(-m, 2 * m + 1)
                                             if math.gcd(e, m) == 1]),
                            min_size=n, max_size=n)))
    twist = RotationTwist(m, k)
    count = draw(counts)
    power = draw(st.integers(0, m - 1))
    offset = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z /= np.linalg.norm(z)
    turns = 2 * math.pi * (np.array(k) * power / m + rng.integers(-1, 2, size=n)) + offset
    t = np.linspace(0.0, 1.0, count)
    samples = np.exp(1j * np.multiply.outer(t, turns)) * z
    representatives = rng.integers(0, m, size=count)
    samples *= np.stack([twist.phases(int(r)) for r in representatives])
    if off_sphere:
        samples *= 1.0 + rng.uniform(-1e-6, 1e-6, size=(count, 1))
    return QuotientLoop(samples=samples, twist=twist)


def lift_or_message(lift, loop, basepoint):
    try:
        return lift(loop, basepoint_choice=basepoint)
    except AmbiguousLiftError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2047).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.integers(-4096, 4096).filter(lambda k: math.gcd(k, m) == 1), min_size=1, max_size=4))))
def test_phase_table_is_each_power_phases_bit_for_bit(case):
    # the lift's rotation table in one exp, against one phases call per power
    m, k = case
    twist = RotationTwist(m, tuple(k))
    want = np.stack([twist.phases(j) for j in range(m)])
    assert np.array_equal(twist.phase_table().view(np.float64), want.view(np.float64))


@settings(max_examples=100, deadline=None)
@given(quotient_loops())
def test_orbit_separation_matches_each_rotation(loop):
    # the closed form against one norm per nontrivial rotation
    twist, pts = loop.twist, loop.samples
    per_rotation = [float(np.min(np.linalg.norm(pts * twist.phases(j) - pts, axis=1)))
                    for j in range(1, twist.m)]
    want = min(per_rotation, default=np.inf)
    assert orbit_separation(twist, pts) == pytest.approx(want, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(quotient_loops(), st.integers())
def test_lift_matches_the_pairwise_oracle(loop, basepoint):
    got = lift_or_message(lift_loop, loop, basepoint)
    want = lift_or_message(lift_by_pairs, loop, basepoint)
    if isinstance(want, str):
        assert got == want
        return
    assert got.deck == want.deck
    np.testing.assert_allclose(lifted_path(got, loop), lifted_path(want, loop),
                               rtol=1e-12, atol=0.0)
    # the margin is a difference of two lengths below 2, so a few ulps of
    # either bound its error when the two nearly cancel
    assert got.margin == pytest.approx(want.margin, rel=1e-12, abs=1e-14)


@settings(max_examples=300, deadline=None)
@given(quotient_loops(max_m=2047), st.integers(), st.integers(1, 64))
def test_lift_matches_the_norm_loop_bit_for_bit(loop, basepoint, block):
    # the four-operation step sums np.linalg.norm's own squares, so every step
    # length, and with it the margin, is the same float; the loop's checks and
    # separation run in blocks of ``block`` points, the oracle's in one
    want = lift_or_message(lift_by_norms, loop, basepoint)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "BLOCK_POINTS", block)
        got = lift_or_message(lift_loop, loop, basepoint)
    if isinstance(want, str):
        assert got == want
        return
    assert (got.powers, got.deck, got.margin) == (want.powers, want.deck, want.margin)


@settings(max_examples=100, deadline=None)
@given(quotient_loops(max_n=33, counts=st.integers(2, 12)), st.integers(), st.integers(1, 64))
def test_lift_matches_the_norm_loop_at_many_coordinates(loop, basepoint, block):
    # odd and even widths up to 33 coordinates, in blocks of one to a few
    # rows: the relative choices read the interleaved reals of n products
    want = lift_or_message(lift_by_norms, loop, basepoint)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "BLOCK_POINTS", block)
        got = lift_or_message(lift_loop, loop, basepoint)
    if isinstance(want, str):
        assert got == want
        return
    assert (got.powers, got.deck, got.margin) == (want.powers, want.deck, want.margin)


@settings(max_examples=200, deadline=None)
@given(quotient_loops(max_m=2047, off_sphere=True), st.integers())
def test_lift_matches_the_norm_loop_off_the_sphere(loop, basepoint):
    # a step the product decides wrongly ties the right one within rounding,
    # so it reaches the bound and raises where the per-step search certifies
    # a margin within rounding of zero; every other lift is the same floats
    want = lift_or_message(lift_by_norms, loop, basepoint)
    got = lift_or_message(lift_loop, loop, basepoint)
    if isinstance(got, str) and not isinstance(want, str) and want.margin < 1e-12:
        assert "not below the half-separation bound" in got
        return
    if isinstance(want, str):
        assert got == want
        return
    assert (got.powers, got.deck, got.margin) == (want.powers, want.deck, want.margin)


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("jump", [2, 3, 4, 5, 6])
def test_first_over_bound_step_at_a_block_edge(monkeypatch, block, jump):
    # one coordinate turning 10 degrees a step and 90 at step ``jump``: in
    # blocks of 2 or 3 points the step is the first or last of a block
    twist = RotationTwist(2, (1,))
    angles = np.radians(10.0 * np.arange(9) + 80.0 * (np.arange(9) >= jump))
    loop = make_loop(np.exp(1j * angles)[:, None], twist)
    monkeypatch.setattr(geometry, "BLOCK_POINTS", block)
    message = (f"step {jump} has length 1.414e+00, not below the half-separation "
               f"bound 1.000e+00")
    assert lift_or_message(lift_loop, loop, 0) == lift_or_message(lift_by_norms, loop, 0) == message


def test_the_first_over_bound_step_names_its_own_length():
    # a 70 degree step over the bound, then a longer 90 degree one in the
    # same block: the error names the first step and its own length
    twist = RotationTwist(2, (1,))
    angles = np.radians([0.0, 10.0, 80.0, 170.0, 180.0])
    loop = make_loop(np.exp(1j * angles)[:, None], twist)
    message = "step 2 has length 1.147e+00, not below the half-separation bound 1.000e+00"
    assert lift_or_message(lift_loop, loop, 0) == lift_or_message(lift_by_norms, loop, 0) == message


def test_lift_holds_one_row_block():
    # 257 points of 2000 coordinates are 8.2 MB complex; in blocks of 8
    # points the lift holds at most two complex arrays of a block and the
    # row before it (288 kB each) beside its rotation table, where forming
    # the lifted path at once held two arrays of the points' size
    n = 2000
    rng = np.random.default_rng(0)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z /= np.linalg.norm(z)
    pts = np.exp(1j * np.pi * np.linspace(0.0, 1.0, 257))[:, None] * z
    loop = make_loop(pts, RotationTwist(2, (1,) * n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "BLOCK_POINTS", 8 * n)
        lift_loop(loop)
        tracemalloc.start()
        try:
            result = lift_loop(loop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.deck == DeckElement(1, 2)
    assert peak < 3 * 9 * n * 16


@pytest.mark.parametrize("n", [1, 2, 5])
def test_classify_orbit_loop_is_independent_of_the_block_size(monkeypatch, n):
    # the orbit's samples and their norms, formed in row blocks, lift as in one array
    model = RadialProfile(1.0 + 0.1 * np.arange(n))
    twist = RotationTwist(3, (1,) * n)
    z0 = np.eye(n, dtype=complex)[0] / math.sqrt(model.a[0])
    orbit = TwistedOrbit(z0=z0, tau=orbit_multiplier(3, 1, 1) / model.a[0], support=(1,),
                         residual=0.0, component_id="x")
    whole = classify_orbit_loop(orbit, twist, model, samples=128)
    for block in (1, 3, 7):
        monkeypatch.setattr(geometry, "BLOCK_POINTS", block)
        got = classify_orbit_loop(orbit, twist, model, samples=128)
        assert (got.powers, got.deck, got.margin) == (whole.powers, whole.deck, whole.margin)
