import math

import numpy as np
import pytest

from reebtwist.geometry import RotationTwist, RoundSphere
from reebtwist.lifting import (
    AmbiguousLiftError,
    DeckElement,
    LiftResult,
    QuotientLoop,
    classify_orbit_loop,
    lift_loop,
    orbit_separation,
)
from reebtwist.orbits import TwistedOrbit, orbit_multiplier

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
    np.testing.assert_allclose(result.path, loop.samples)


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
    result = classify_orbit_loop(orbit, twist, SPHERE2)
    assert result.deck == DeckElement(1, 2)
    cert = result.certificate()
    assert cert["noncontractible"] and cert["margin"] > 0


def test_classify_untwisted_orbit_is_trivial():
    twist = RotationTwist(1, (1, 1))
    orbit = TwistedOrbit(z0=np.array([1.0 + 0j, 0j]),
                         tau=orbit_multiplier(1, 1, 2), support=(1,),
                         residual=0.0, component_id="supp(1)|l=2")
    result = classify_orbit_loop(orbit, twist, SPHERE2)
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
    for lifted, rep in zip(result.path, loop.samples):
        dists = [np.linalg.norm(lifted - twist.apply(rep, power=j))
                 for j in range(twist.m)]
        assert min(dists) < 1e-12


def test_deck_element_independent_of_basepoint():
    twist = RotationTwist(4, (1, 1))
    arc = reeb_arc(twist, samples=96)
    loop = make_loop(arc, twist)
    decks = {lift_loop(loop, basepoint_choice=j).deck.exponent
             for j in range(twist.m)}
    assert len(decks) == 1


def test_concatenation_is_homomorphism():
    twist = RotationTwist(5, (1, 1))
    arc1 = reeb_arc(twist, power=1, samples=128)
    arc2 = reeb_arc(twist, power=2, samples=128)
    d1 = lift_loop(make_loop(arc1, twist)).deck
    d2 = lift_loop(make_loop(arc2, twist)).deck
    joined = lift_loop(make_loop(join(arc1, arc2, twist, 1), twist)).deck
    assert joined == d1 + d2


def test_refinement_stability():
    twist = RotationTwist(3, (1, 1))
    coarse = make_loop(reeb_arc(twist, samples=24), twist)
    fine = make_loop(reeb_arc(twist, samples=48), twist)
    assert lift_loop(coarse).deck == lift_loop(fine).deck


def test_undersampled_loop_rejected():
    twist = RotationTwist(2, (1, 1))
    arc = reeb_arc(twist, samples=3)  # steps of length about sqrt(2)
    with pytest.raises(AmbiguousLiftError) as err:
        lift_loop(make_loop(arc, twist))
    assert err.value.step_index >= 1
    assert err.value.step >= err.value.bound


def test_orbit_separation_value():
    twist = RotationTwist(2, (1, 1))
    pts = np.array([[1.0 + 0j, 0j]])
    # antipodal rotation: separation 2
    assert orbit_separation(twist, pts) == pytest.approx(2.0)
    assert orbit_separation(RotationTwist(1, (1,)), np.array([[1.0 + 0j]])) == np.inf


def test_deck_group_law():
    a = DeckElement(3, 4)
    b = DeckElement(2, 4)
    assert (a + b) == DeckElement(1, 4)
    with pytest.raises(ValueError):
        a + DeckElement(1, 5)


def test_loop_json_round_trip():
    twist = RotationTwist(2, (1, 1))
    loop = make_loop(reeb_arc(twist), twist)
    back = QuotientLoop.from_json_dict(loop.to_json_dict())
    assert back.twist == loop.twist
    np.testing.assert_allclose(back.samples, loop.samples)
    assert back.closed == loop.closed


def test_loop_validation():
    twist = RotationTwist(2, (1, 1))
    with pytest.raises(ValueError, match="unit sphere"):
        QuotientLoop(samples=np.array([[2.0 + 0j, 0j], [2.0 + 0j, 0j]]), twist=twist)
    with pytest.raises(ValueError, match="at least two"):
        QuotientLoop(samples=np.array([[1.0 + 0j, 0j]]), twist=twist)
