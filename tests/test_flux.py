import numpy as np
import pytest

from driftfv.constitutive import PressureLaw, dr_mean, enthalpy, g_inverse
from driftfv.flux import bernoulli, flux_coefficients, lemma1_residual, sg_flux

ISO = PressureLaw.isothermal()
POW2 = PressureLaw.power(2.0)


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
