import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

from driftfv.constitutive import PressureLaw, dr_mean, enthalpy
from driftfv.equilibrium import solve_equilibrium
from driftfv.flux import sg_flux
from driftfv.mesh import build_cartesian
from driftfv.problem import discretize_data, pn_junction_preset
from driftfv.sparse import SolverError, check_m_matrix


def _symmetric_problem(law=PressureLaw.isothermal(), doping=0.0, nx=3, ny=3):
    return discretize_data(
        build_cartesian(nx, ny), law, 1.0, lambda x, y: doping,
        lambda x, y: 1.0, lambda x, y: 1.0,
        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: 0.0)


def test_symmetric_equilibrium_is_trivial():
    eq = solve_equilibrium(_symmetric_problem())
    assert np.allclose(eq.psi, 0.0, atol=1e-12)
    assert np.allclose(eq.n, 1.0, atol=1e-12)
    assert np.allclose(eq.p, 1.0, atol=1e-12)
    assert eq.residual <= 1e-10


def test_single_cell_against_bisection():
    # One cell, 4 Dirichlet edges with tau=2 each, isothermal, alpha=0:
    # 8 psi = e^{-psi} - e^{psi} + c  (lambda^2 = 1, m(K) = 1).
    c = 4.0
    prob = _symmetric_problem(doping=c, nx=1, ny=1)
    eq = solve_equilibrium(prob)
    root = brentq(lambda s: 8.0 * s - (np.exp(-s) - np.exp(s) + c),
                  -10.0, 10.0, xtol=1e-14)
    assert eq.psi[0] == pytest.approx(root, abs=1e-10)
    assert eq.n[0] == pytest.approx(np.exp(root))
    assert eq.p[0] == pytest.approx(np.exp(-root))


@pytest.mark.parametrize("doping", ["zero", "pn"])
def test_linear_preset_mass_action(doping):
    preset = pn_junction_preset("linear_r0", doping)
    mesh = build_cartesian(16, 16, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    assert eq.residual <= 1e-10
    product = eq.n * eq.p
    assert np.max(np.abs(product - 1.0)) <= 1e-10


@pytest.mark.parametrize("case", ["linear_r0", "nonlinear_nondegenerate",
                                  "nonlinear_degenerate"])
def test_equilibrium_fluxes_vanish(case):
    preset = pn_junction_preset(case, "pn")
    mesh = build_cartesian(12, 12, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    # Cell values, then Dirichlet values, gathered to both ends of each
    # active edge (interior edges first); Neumann edges carry no flux.
    first, other = mesh.active_cells
    n = np.concatenate([eq.n, prob.n_dirichlet])
    p = np.concatenate([eq.p, prob.p_dirichlet])
    psi = np.concatenate([eq.psi, prob.psi_dirichlet])
    n_k, n_s = n[first], n[other]
    p_k, p_s = p[first], p[other]
    dpsi = psi[other] - psi[first]
    drn = dr_mean(prob.law, n_k, n_s)
    drp = dr_mean(prob.law, p_k, p_s)
    f = sg_flux(mesh.active_tau, n_k, n_s, dpsi, drn)
    g = sg_flux(mesh.active_tau, p_k, p_s, -dpsi, drp)
    scale = mesh.active_tau * max(prob.M, 1.0)
    if case == "nonlinear_degenerate":
        # Zero boundary densities clip g, so the enthalpy identity (and with
        # it exact flux cancellation) fails on those Dirichlet edges; the
        # interior fluxes still vanish.
        edges = slice(len(mesh.interior_edges))
    else:
        edges = slice(None)
    assert np.max(np.abs(f[edges]) / scale[edges]) <= 1e-10
    assert np.max(np.abs(g[edges]) / scale[edges]) <= 1e-10


def test_newton_jacobian_is_m_matrix():
    from driftfv import constitutive as cst
    from driftfv.sparse import tpfa_operator

    preset = pn_junction_preset("nonlinear_nondegenerate", "pn")
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    gpn = cst.g_prime(prob.law, prob.alpha_n + eq.psi)
    gpp = cst.g_prime(prob.law, prob.alpha_p - eq.psi)
    # lambda^2 times the Laplacian plus the diagonal m(K) (g'_N + g'_P).
    J, _ = tpfa_operator(mesh, prob.lambda2, prob.lambda2,
                         mesh.cell_measures * (gpn + gpp), prob.psi_dirichlet)
    assert check_m_matrix(J)


def test_degenerate_equilibrium_reports():
    preset = pn_junction_preset("nonlinear_degenerate", "zero")
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    assert eq.residual <= 1e-10
    assert np.all(eq.n >= 0.0)
    assert np.all(eq.p >= 0.0)
    assert np.all(np.isfinite(eq.psi))


def test_entropy_of_equilibrium_is_zero():
    from driftfv.diagnostics import entropy, production
    preset = pn_junction_preset("linear_srh", "pn")
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    state = eq
    assert entropy(prob, state, eq) == pytest.approx(0.0, abs=1e-14)
    assert production(prob, state, eq) == pytest.approx(0.0, abs=1e-14)


def test_residual_history_monotone_tail():
    preset = pn_junction_preset("linear_r0", "pn")
    mesh = build_cartesian(16, 16, dirichlet_predicate=preset.dirichlet_predicate)
    eq = solve_equilibrium(preset.build(mesh))
    assert eq.iterations >= 1
    assert eq.residual == eq.residual_history[-1]
    assert eq.residual_history[-1] < eq.residual_history[0]


@pytest.mark.parametrize("case", ["linear_r0", "nonlinear_nondegenerate",
                                  "nonlinear_degenerate"])
def test_newton_converges_fast_at_small_lambda2(case):
    # Newton starts from the harmonic extension of the contacts' potential,
    # which the maximum principle keeps within their range at any lambda^2.
    for doping in ("zero", "pn"):
        for lam2 in (1e-2, 1e-3, 1e-4):
            preset = dataclasses.replace(pn_junction_preset(case, doping), lambda2=lam2)
            mesh = build_cartesian(16, 16, dirichlet_predicate=preset.dirichlet_predicate)
            prob = preset.build(mesh)
            start = solve_equilibrium(prob, tol=1e300)
            assert start.iterations == 0
            assert np.all(start.psi >= prob.psi_dirichlet.min())
            assert np.all(start.psi <= prob.psi_dirichlet.max())
            eq = solve_equilibrium(prob)
            assert eq.iterations <= 6
            assert eq.residual <= 1e-10


def test_newton_failure_reports_residual_history():
    preset = pn_junction_preset("linear_r0", "pn")
    mesh = build_cartesian(4, 4, dirichlet_predicate=preset.dirichlet_predicate)
    with pytest.raises(SolverError, match=r"did not converge in 1 iterations; "
                                          r"residual history: \['"):
        solve_equilibrium(preset.build(mesh), tol=0.0, max_iter=1)


def _equilibria(monkeypatch, reuse, n=16):
    """Equilibria of all ten presets at nxn, and the Newton factorizations."""
    from driftfv import equilibrium, sparse
    from driftfv.problem import PRESET_CASES, PRESET_DOPINGS

    factor = sparse.factor
    counts = []
    monkeypatch.setattr(sparse, "factor", lambda A: counts.append(1) or factor(A))
    if not reuse:
        solve = sparse.solve
        monkeypatch.setattr(equilibrium.la, "solve", lambda A, b, held=None: solve(A, b))
    out, newton_factors = [], 0
    for case in PRESET_CASES:
        for doping in PRESET_DOPINGS:
            preset = pn_junction_preset(case, doping)
            mesh = build_cartesian(n, n, dirichlet_predicate=preset.dirichlet_predicate)
            prob = preset.build(mesh)
            # The initial guess's factor, the Laplacian's, is outside the count.
            sparse.algebra(mesh)
            before = len(counts)
            out.append(solve_equilibrium(prob))
            newton_factors += len(counts) - before
    monkeypatch.undo()
    return out, newton_factors


def test_newton_reuses_its_factor(monkeypatch):
    held, held_factors = _equilibria(monkeypatch, reuse=True)
    fresh, fresh_factors = _equilibria(monkeypatch, reuse=False)
    iterations = sum(eq.iterations for eq in held)
    assert fresh_factors == iterations
    assert held_factors < iterations
    for a, b in zip(held, fresh):
        assert a.iterations == b.iterations
        assert a.residual <= 1e-10
        assert np.max(np.abs(a.psi - b.psi)) <= 1e-13


@pytest.mark.parametrize("n", [16, 32])
def test_newton_factors_one_jacobian_per_equilibrium(monkeypatch, n):
    # Every preset takes at least one Newton step, so one factorization per
    # preset in all means exactly one each: later Jacobians are solved by
    # refinement on the first one's factor, in as many Newton steps as ever.
    eqs, factors = _equilibria(monkeypatch, reuse=True, n=n)
    assert [eq.iterations for eq in eqs] == [3] * 6 + [2] * 4
    assert factors == len(eqs) == 10
    assert all(eq.residual <= 1e-10 for eq in eqs)


def test_newton_jacobian_is_lambda2_laplacian_plus_diagonal(monkeypatch):
    from driftfv import constitutive, equilibrium, sparse
    preset = pn_junction_preset("nonlinear_nondegenerate", "pn")
    mesh = build_cartesian(16, 16, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    derivatives, jacobians = [], []
    g_prime, solve = constitutive.g_prime, equilibrium.la.solve

    def recording_g_prime(law, s):
        derivatives.append(g_prime(law, s))
        return derivatives[-1]

    def recording_solve(A, b, held=None):
        jacobians.append(A.tocsc())
        return solve(A, b, held)

    monkeypatch.setattr(constitutive, "g_prime", recording_g_prime)
    monkeypatch.setattr(equilibrium.la, "solve", recording_solve)
    eq = solve_equilibrium(prob)
    assert eq.iterations >= 1
    assert len(jacobians) == eq.iterations and len(derivatives) == 2 * eq.iterations
    for J, gpn, gpp in zip(jacobians, derivatives[::2], derivatives[1::2]):
        ref = (prob.lambda2 * sparse.algebra(mesh).laplacian
               + sp.diags(mesh.cell_measures * (gpn + gpp)))
        assert abs(J - ref).max() <= 1e-15 * abs(ref).max()
