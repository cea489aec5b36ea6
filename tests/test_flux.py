import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfv.constitutive import PressureLaw, dr_mean, enthalpy, g_inverse
from driftfv.flux import (DR_DEGENERATE, bernoulli, flux_coefficients,
                          lemma1_residual, sg_flux)

ISO = PressureLaw.isothermal()
POW2 = PressureLaw.power(2.0)
EPS = np.finfo(float).eps
# Fixed example sequences, so that the suite runs the same inputs every time.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def test_bernoulli_values():
    assert bernoulli(0.0) == 1.0
    assert bernoulli(1.0) == pytest.approx(1.0 / (np.e - 1.0))
    assert bernoulli(-1.0) == pytest.approx(1.0 / (1.0 - 1.0 / np.e))


def test_bernoulli_identity():
    x = np.linspace(-700.0, 700.0, 10001)
    res = bernoulli(-x) - bernoulli(x) - x
    assert np.max(np.abs(res) / np.maximum(1.0, np.abs(x))) <= 1e-13


def test_bernoulli_stable_everywhere():
    x = np.concatenate([np.geomspace(1e-320, 1e3, 400),
                        -np.geomspace(1e-320, 1e3, 400), [0.0]])
    b = bernoulli(x)
    assert np.all(np.isfinite(b))
    assert np.all(b >= 0.0)


def test_bernoulli_branches_exact():
    # x/expm1(x) needs no patch for large negative x, where expm1(x) is
    # exactly -1; the Taylor and saturation patches give their exact forms.
    neg = np.array([-700.5, -1e4, -1e308, -np.inf])
    assert np.array_equal(bernoulli(neg), -neg)
    assert np.array_equal(bernoulli(np.array([700.5, 1e4, np.inf])), np.zeros(3))
    tiny = np.array([0.0, -0.0, 1e-300, -3e-9, 9e-9])
    assert np.array_equal(bernoulli(tiny), 1.0 - tiny / 2.0 + tiny * tiny / 12.0)
    assert type(bernoulli(-800.0)) is float and bernoulli(-800.0) == 800.0
    assert np.isnan(bernoulli(np.nan))


def test_bernoulli_monotone():
    x = np.linspace(-50.0, 50.0, 5000)
    assert np.all(np.diff(bernoulli(x)) <= 0.0)


def test_sg_flux_pure_diffusion():
    assert sg_flux(3.0, 2.0, 1.0, 0.0) == pytest.approx(3.0)


def test_sg_flux_equal_densities_drift():
    # With n_k = n_ksigma = n the flux reduces to tau * n * dpsi.
    for dpsi in (-3.0, -0.1, 0.4, 7.0):
        assert sg_flux(2.0, 1.5, 1.5, dpsi) == pytest.approx(2.0 * 1.5 * dpsi)


def test_sg_flux_equilibrium_vanishes():
    psi_k, psi_s = 0.3, -1.2
    f = sg_flux(5.0, np.exp(psi_k), np.exp(psi_s), psi_s - psi_k)
    assert f == pytest.approx(0.0, abs=1e-13)


def test_sg_flux_p_mirrors_n():
    # Hole flux (potential sign flipped): tau * (B(dpsi) p_K - B(-dpsi) p_Ks).
    assert sg_flux(2.0, 1.0, 3.0, -0.7) == pytest.approx(
        2.0 * (bernoulli(0.7) * 1.0 - bernoulli(-0.7) * 3.0))


def test_gen_flux_reduces_to_classical():
    rng = np.random.default_rng(9)
    n_k = rng.uniform(0.1, 10.0, 100)
    n_s = rng.uniform(0.1, 10.0, 100)
    dpsi = rng.uniform(-5.0, 5.0, 100)
    classical = sg_flux(1.0, n_k, n_s, dpsi)
    general = sg_flux(1.0, n_k, n_s, dpsi, np.ones(100))
    assert np.array_equal(classical, general)


def test_gen_flux_zero_dpsi():
    dr = dr_mean(POW2, 1.0, np.e)
    f = sg_flux(1.0, 1.0, np.e, 0.0, dr)
    assert f == pytest.approx(2.0 * (np.e - 1.0) * (1.0 - np.e))


def test_gen_flux_equilibrium_vanishes():
    # h(N_K) - Psi_K = h(N_Ks) - Psi_Ks forces a vanishing generalized flux.
    alpha = 0.4
    psi_k, psi_s = 0.2, 1.1
    n_k = g_inverse(POW2, alpha + psi_k)
    n_s = g_inverse(POW2, alpha + psi_s)
    dr = dr_mean(POW2, n_k, n_s)
    f = sg_flux(3.0, n_k, n_s, psi_s - psi_k, dr)
    assert f == pytest.approx(0.0, abs=1e-12)


def test_gen_flux_antisymmetry():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n_k, n_s = rng.uniform(0.01, 5.0, 2)
        dpsi = rng.uniform(-10.0, 10.0)
        dr = float(dr_mean(POW2, n_k, n_s))
        fwd = sg_flux(2.0, n_k, n_s, dpsi, dr)
        bwd = sg_flux(2.0, n_s, n_k, -dpsi, dr)
        assert fwd == pytest.approx(-bwd, rel=1e-12, abs=1e-12)


def test_gen_flux_monotone_in_densities():
    a_fwd, a_bwd = flux_coefficients(np.array([0.7]), np.array([2.0]))
    assert a_fwd[0] >= 0.0 and a_bwd[0] >= 0.0


def test_degenerate_upwind_limit():
    # dr -> 0 turns the flux into pure upwind convection:
    # tau * (max(dpsi, 0) n_K - max(-dpsi, 0) n_Ks).
    tau, n_k, n_s = 2.0, 3.0, 5.0
    for dpsi in (-1.5, 1.5):
        limit = tau * (max(dpsi, 0.0) * n_k - max(-dpsi, 0.0) * n_s)
        assert sg_flux(tau, n_k, n_s, dpsi, 0.0) == pytest.approx(limit)
        nearly = sg_flux(tau, n_k, n_s, dpsi, 1e-10)
        assert nearly == pytest.approx(limit, rel=1e-6)


def test_flux_coefficients_equal_the_bernoulli_form_bit_for_bit():
    # With its degenerate and dr passes skipped where they are not needed,
    # flux_coefficients must give exactly dr*B(-+x/dr) on every branch:
    # x = 0, the Taylor range, ordinary values, saturation past 700,
    # degenerate dr and the float dr of 1 that skips the dr arithmetic.
    rng = np.random.default_rng(21)
    dpsi = np.concatenate([[0.0, -0.0, 1e-300, -1e-9, 5e-9, 700.5, -705.0, 1e4],
                           rng.normal(0.0, 3.0, 200), rng.normal(0.0, 1e-8, 50)])
    dr = rng.uniform(0.0, 3.0, dpsi.size)
    dr[::9] = 0.0
    dr[1::9] = DR_DEGENERATE
    dr[2::9] = 2.0 * DR_DEGENERATE
    for d in (dr, np.ones_like(dr), 1.0):
        deg = np.asarray(d) <= DR_DEGENERATE
        drs = np.where(deg, 1.0, d)
        x = dpsi / drs
        b_pos = bernoulli(np.abs(x))
        b_neg = b_pos + np.abs(x)
        want_fwd = np.where(deg, np.maximum(dpsi, 0.0), drs * np.where(x >= 0.0, b_neg, b_pos))
        want_bwd = np.where(deg, np.maximum(-dpsi, 0.0), drs * np.where(x >= 0.0, b_pos, b_neg))
        a_fwd, a_bwd = flux_coefficients(dpsi, d)
        assert np.array_equal(a_fwd, want_fwd) and np.array_equal(a_bwd, want_bwd)


def test_hole_flux_signs():
    f_n = sg_flux(1.0, 2.0, 2.0, 1.0, 1.0)
    f_p = sg_flux(1.0, 2.0, 2.0, -1.0, 1.0)
    assert f_n == pytest.approx(2.0)
    assert f_p == pytest.approx(-2.0)


def test_lemma1_equal_densities_zero():
    for law in (ISO, POW2):
        n = 1.7
        h = float(enthalpy(law, n))
        dr = float(dr_mean(law, n, n))
        r = lemma1_residual(2.0, n, n, 0.8, dr, h, h)
        assert r == pytest.approx(0.0, abs=1e-12)


def test_lemma1_random_nonpositive():
    rng = np.random.default_rng(23)
    n = 20000
    for law in (ISO, POW2, PressureLaw.power(5.0 / 3.0)):
        tau = rng.uniform(1e-3, 10.0, n)
        n_k = rng.uniform(1e-3, 10.0, n)
        n_s = rng.uniform(1e-3, 10.0, n)
        dpsi = rng.uniform(-20.0, 20.0, n)
        dr = dr_mean(law, n_k, n_s)
        h_k = enthalpy(law, n_k)
        h_s = enthalpy(law, n_s)
        res = lemma1_residual(tau, n_k, n_s, dpsi, dr, h_k, h_s)
        scale = tau * np.maximum(n_k, n_s) * (1.0 + dpsi ** 2)
        assert np.all(res <= 1e-12 * scale)


@PROPERTY
@given(FINITE)
def test_bernoulli_reflection_property(x):
    # The form flux_coefficients evaluates: two nonnegative terms, no
    # cancellation, so it holds to a few ulps over the whole double range.
    ax = abs(x)
    assert bernoulli(-ax) == pytest.approx(bernoulli(ax) + ax, rel=4.0 * EPS, abs=0.0)


@PROPERTY
@given(FINITE, FINITE)
def test_bernoulli_nonnegative_and_nonincreasing_property(x, y):
    lo, hi = min(x, y), max(x, y)
    b_lo, b_hi = bernoulli(lo), bernoulli(hi)
    assert np.isfinite(b_lo) and b_hi >= 0.0
    assert b_lo >= b_hi * (1.0 - 4.0 * EPS)


_NEAR_DEGENERATE = st.one_of(
    st.sampled_from([np.nextafter(DR_DEGENERATE, 0.0), DR_DEGENERATE,
                     np.nextafter(DR_DEGENERATE, 1.0), 0.0]),
    st.floats(0.5 * DR_DEGENERATE, 2.0 * DR_DEGENERATE))


@PROPERTY
@given(dpsi=st.floats(-1e6, 1e6),
       dr=st.one_of(_NEAR_DEGENERATE, st.floats(0.0, 1e6)))
def test_flux_coefficients_property(dpsi, dr):
    a_fwd, a_bwd = flux_coefficients(dpsi, dr)
    assert a_fwd >= 0.0 and a_bwd >= 0.0
    # Equal densities carry the pure drift tau * n * dpsi.
    assert abs(a_fwd - a_bwd - dpsi) <= 4.0 * EPS * (abs(dpsi) + max(dr, 1.0))


_LAWS = st.one_of(st.just(ISO), st.floats(1.05, 4.0).map(PressureLaw.power))
_DENSITY = st.floats(1e-6, 10.0)


@PROPERTY
@given(law=_LAWS, tau=st.floats(1e-6, 10.0), n_k=_DENSITY, n_s=_DENSITY,
       dpsi=st.floats(-20.0, 20.0))
def test_lemma1_residual_nonpositive_property(law, tau, n_k, n_s, dpsi):
    h_k, h_s = float(enthalpy(law, n_k)), float(enthalpy(law, n_s))
    res = lemma1_residual(tau, n_k, n_s, dpsi, dr_mean(law, n_k, n_s), h_k, h_s)
    w = (h_s - h_k) - dpsi
    assert res <= 1e-12 * tau * max(n_k, n_s) * (1.0 + w ** 2)
