import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfv.constitutive import (_DR_LOG_TOL, PressureLaw, big_h, dr_indexed,
                                  dr_mean, enthalpy, g_inverse, g_prime, pressure,
                                  pressure_prime)

ISO = PressureLaw.isothermal()
POW2 = PressureLaw.power(2.0)
POW53 = PressureLaw.power(5.0 / 3.0)


def test_law_construction():
    assert ISO.is_isothermal
    assert not POW2.is_isothermal
    with pytest.raises(ValueError):
        PressureLaw.power(1.0)
    with pytest.raises(ValueError):
        PressureLaw(0.5)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 1.0, 0.5])
def test_power_law_rejects_alpha_not_finite_above_one(alpha):
    with pytest.raises(ValueError, match="power law requires a finite alpha > 1"):
        PressureLaw.power(alpha)
    if alpha != 1.0:
        with pytest.raises(ValueError, match="pressure exponent"):
            PressureLaw(alpha)


def test_enthalpy_values():
    assert enthalpy(ISO, 1.0) == 0.0
    assert enthalpy(ISO, np.e) == pytest.approx(1.0)
    assert enthalpy(POW53, 8.0) == pytest.approx(7.5)
    # h(0+) = -alpha/(alpha-1) for the power law, -inf isothermal.
    assert enthalpy(POW53, 0.0) == pytest.approx(-2.5)
    assert enthalpy(POW2, 0.0) == pytest.approx(-2.0)
    assert enthalpy(ISO, 0.0) == -np.inf


def test_big_h_values():
    for law in (ISO, POW2, POW53):
        assert big_h(law, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert big_h(ISO, np.e) == pytest.approx(1.0)
    assert big_h(POW2, 2.0) == pytest.approx(1.0)
    assert big_h(ISO, 0.0) == pytest.approx(1.0)


def test_big_h_convex():
    rng = np.random.default_rng(3)
    for law in (ISO, POW2, POW53):
        a = rng.uniform(0.01, 10.0, 500)
        b = rng.uniform(0.01, 10.0, 500)
        mid = big_h(law, 0.5 * (a + b))
        assert np.all(mid <= 0.5 * (big_h(law, a) + big_h(law, b)) + 1e-12)


def test_g_inverse_values():
    for law in (ISO, POW2, POW53):
        assert g_inverse(law, 0.0) == pytest.approx(1.0)
    assert g_inverse(POW53, 7.5) == pytest.approx(8.0)
    assert g_inverse(POW53, -10.0) == 0.0  # below h(0+) = -2.5
    assert g_inverse(ISO, 1.0) == pytest.approx(np.e)


def test_g_round_trip():
    s = np.geomspace(1e-6, 1e6, 200)
    for law in (ISO, POW2, POW53):
        assert np.allclose(g_inverse(law, enthalpy(law, s)), s, rtol=1e-10)


def test_g_prime_kink():
    assert g_prime(POW53, -2.5) == 0.0
    assert g_prime(POW53, -5.0) == 0.0
    assert g_prime(POW53, 0.0) == pytest.approx(1.0 / (5.0 / 3.0))
    # Finite-difference check away from the kink.
    s = 1.3
    fd = (g_inverse(POW2, s + 1e-7) - g_inverse(POW2, s - 1e-7)) / 2e-7
    assert g_prime(POW2, s) == pytest.approx(fd, rel=1e-6)


def test_dr_values():
    assert dr_mean(ISO, 2.0, 5.0) == pytest.approx(1.0)
    assert dr_mean(ISO, 3.0, 3.0) == pytest.approx(1.0)
    assert dr_mean(POW2, 3.0, 3.0) == pytest.approx(6.0)
    assert dr_mean(POW2, 1.0, np.e) == pytest.approx(2.0 * (np.e - 1.0))


def test_dr_symmetry_and_nonnegativity():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 10.0, 2000)
    b = rng.uniform(0.0, 10.0, 2000)
    for law in (POW2, POW53):
        ab = dr_mean(law, a, b)
        assert np.allclose(ab, dr_mean(law, b, a), rtol=1e-12, atol=1e-14)
        assert np.all(ab >= 0.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(law=st.one_of(st.just(ISO), st.floats(1.05, 4.0).map(PressureLaw.power)),
       a=st.floats(0.0, 1e3), b=st.floats(0.0, 1e3))
def test_dr_symmetry_and_nonnegativity_property(law, a, b):
    ab = dr_mean(law, a, b)
    assert ab == dr_mean(law, b, a)
    assert ab >= 0.0


# Cell values: zeros, and positive values each with a neighbour closer than
# _DR_LOG_TOL in log, so that pairs hit both branches of dr.
_dr_values = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                      min_size=1, max_size=8).map(
    lambda base: np.array(base + [v * (1.0 + 0.25 * _DR_LOG_TOL) for v in base]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(law=st.one_of(st.just(ISO), st.floats(1.05, 4.0).map(PressureLaw.power)),
       values=_dr_values, data=st.data())
def test_dr_indexed_matches_pointwise_dr_mean_property(law, values, data):
    index = st.integers(0, len(values) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=24))
    first, other = np.array(pairs).T
    got = dr_indexed(law, values, first, other)
    assert np.array_equal(got, dr_indexed(law, values, other, first))
    for dr, i, j in zip(got, first, other):
        assert dr == dr_mean(law, values[i], values[j])
        assert dr >= 0.0


def test_dr_indexed_covers_both_branches():
    a = 2.0
    values = np.array([0.0, a, a * (1.0 + 0.25 * _DR_LOG_TOL), 3.0])
    first, other = np.array([[0, 1], [1, 1], [1, 2], [1, 3]]).T
    got = dr_indexed(POW2, values, first, other)
    # A zero, an equal pair and a near-equal pair take r'((a+b)/2).
    mid = pressure_prime(POW2, 0.5 * (values[first] + values[other]))
    assert np.array_equal(got[:3], mid[:3])
    assert got[3] == (enthalpy(POW2, 3.0) - enthalpy(POW2, a)) / (np.log(3.0) - np.log(a))


def test_dr_log_identity():
    # (h(b) - h(a)) / dr(a,b) = log(b) - log(a) for positive distinct pairs.
    rng = np.random.default_rng(5)
    a = rng.uniform(0.01, 10.0, 1000)
    b = rng.uniform(0.01, 10.0, 1000)
    for law in (POW2, POW53):
        dr = dr_mean(law, a, b)
        lhs = (enthalpy(law, b) - enthalpy(law, a)) / dr
        assert np.allclose(lhs, np.log(b) - np.log(a), rtol=1e-10, atol=1e-10)


def test_dr_near_equal_branch():
    a = 2.0
    b = a * (1.0 + 1e-13)
    assert dr_mean(POW2, a, b) == pytest.approx(pressure_prime(POW2, 0.5 * (a + b)))


def test_pressure_and_prime():
    assert pressure(ISO, 4.0) == 4.0
    assert pressure(POW2, 3.0) == 9.0
    assert pressure_prime(ISO, 7.0) == 1.0
    assert pressure_prime(POW2, 3.0) == 6.0
    assert pressure(POW2, 0.0) == 0.0
    assert pressure_prime(POW2, 0.0) == 0.0


def test_convexity_gap_bounds():
    # c1 (x-y)^2 <= H(x) - H(y) - h(y)(x-y) and c3 (x-y)^2 <= (h(x)-h(y))(x-y)
    # on [m, M] = [0.1, 10] with c1 = c3 = min r' / (2 max s).
    rng = np.random.default_rng(17)
    m, M = 0.1, 10.0
    x = rng.uniform(m, M, 1000)
    y = rng.uniform(m, M, 1000)
    for law in (ISO, POW2, POW53):
        grid = np.linspace(m, M, 10001)
        c1 = np.min(pressure_prime(law, grid)) / (2.0 * M)
        gap = big_h(law, x) - big_h(law, y) - enthalpy(law, y) * (x - y)
        assert np.all(gap >= c1 * (x - y) ** 2 - 1e-12)
        c2 = 0.5 * np.max(pressure_prime(law, grid) / grid)
        assert np.all(gap <= c2 * (x - y) ** 2 + 1e-12)
        prod = (enthalpy(law, x) - enthalpy(law, y)) * (x - y)
        assert np.all(prod >= c1 * (x - y) ** 2 - 1e-12)
