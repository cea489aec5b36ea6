import numpy as np
import pytest
from scipy.optimize import brentq

from driftfv.constitutive import PressureLaw, dr_mean, enthalpy
from driftfv.equilibrium import solve_equilibrium
from driftfv.flux import sg_flux
from driftfv.mesh import build_cartesian
from driftfv.problem import discretize_data, pn_junction_preset
from driftfv.sparse import check_m_matrix


def _symmetric_problem(law=PressureLaw.isothermal(), doping=0.0, nx=3, ny=3):
    return discretize_data(
        build_cartesian(nx, ny), law, 1.0, lambda x, y: doping,
        lambda x, y: 1.0, lambda x, y: 1.0,
        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: 0.0)


def test_symmetric_equilibrium_is_trivial():
    eq = solve_equilibrium(_symmetric_problem())
    assert np.allclose(eq.psi.cell_values, 0.0, atol=1e-12)
    assert np.allclose(eq.n.cell_values, 1.0, atol=1e-12)
    assert np.allclose(eq.p.cell_values, 1.0, atol=1e-12)
    assert eq.residual <= 1e-10


def test_single_cell_against_bisection():
    # One cell, 4 Dirichlet edges with tau=2 each, isothermal, alpha=0:
    # 8 psi = e^{-psi} - e^{psi} + c  (lambda^2 = 1, m(K) = 1).
    c = 4.0
    prob = _symmetric_problem(doping=c, nx=1, ny=1)
    eq = solve_equilibrium(prob)
    root = brentq(lambda s: 8.0 * s - (np.exp(-s) - np.exp(s) + c),
                  -10.0, 10.0, xtol=1e-14)
    assert eq.psi.cell_values[0] == pytest.approx(root, abs=1e-10)
    assert eq.n.cell_values[0] == pytest.approx(np.exp(root))
    assert eq.p.cell_values[0] == pytest.approx(np.exp(-root))


@pytest.mark.parametrize("doping", ["zero", "pn"])
def test_linear_preset_mass_action(doping):
    preset = pn_junction_preset("linear_r0", doping)
    mesh = build_cartesian(16, 16, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    assert eq.residual <= 1e-10
    product = eq.n.cell_values * eq.p.cell_values
    assert np.max(np.abs(product - 1.0)) <= 1e-10


@pytest.mark.parametrize("case", ["linear_r0", "nonlinear_nondegenerate",
                                  "nonlinear_degenerate"])
def test_equilibrium_fluxes_vanish(case):
    preset = pn_junction_preset(case, "pn")
    mesh = build_cartesian(12, 12, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    n = eq.n
    p = eq.p
    n_k = n.cell_values[mesh.edge_cells[:, 0]]
    n_s = mesh.edge_other_values(n.cell_values, n.dirichlet_values)
    p_k = p.cell_values[mesh.edge_cells[:, 0]]
    p_s = mesh.edge_other_values(p.cell_values, p.dirichlet_values)
    dpsi = mesh.edge_differences(eq.psi)
    drn = dr_mean(prob.law, n_k, n_s)
    drp = dr_mean(prob.law, p_k, p_s)
    f = sg_flux(mesh.edge_tau, n_k, n_s, dpsi, drn)
    g = sg_flux(mesh.edge_tau, p_k, p_s, -dpsi, drp)
    scale = mesh.edge_tau * max(prob.M, 1.0)
    if case == "nonlinear_degenerate":
        # Zero boundary densities clip g, so the enthalpy identity (and with
        # it exact flux cancellation) fails on those Dirichlet edges; the
        # interior fluxes still vanish.
        edges = mesh.interior_edges
    else:
        edges = np.arange(mesh.n_edges)
    assert np.max(np.abs(f[edges]) / scale[edges]) <= 1e-10
    assert np.max(np.abs(g[edges]) / scale[edges]) <= 1e-10


def test_newton_jacobian_is_m_matrix():
    import scipy.sparse as sp
    from driftfv import constitutive as cst
    from driftfv.sparse import tpfa_system

    preset = pn_junction_preset("nonlinear_nondegenerate", "pn")
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    L, _ = tpfa_system(mesh, 1.0, 1.0, 0.0, prob.psi_dirichlet)
    gpn = cst.g_prime(prob.law, prob.alpha_n + eq.psi.cell_values)
    gpp = cst.g_prime(prob.law, prob.alpha_p - eq.psi.cell_values)
    J = prob.lambda2 * L + sp.diags(mesh.cell_measures * (gpn + gpp))
    assert check_m_matrix(J)


def test_degenerate_equilibrium_reports():
    preset = pn_junction_preset("nonlinear_degenerate", "zero")
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    assert eq.residual <= 1e-10
    assert np.all(eq.n.cell_values >= 0.0)
    assert np.all(eq.p.cell_values >= 0.0)
    assert np.all(np.isfinite(eq.psi.cell_values))


def test_entropy_of_equilibrium_is_zero():
    from driftfv.diagnostics import entropy, production
    preset = pn_junction_preset("linear_srh", "pn")
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    state = eq.as_state()
    assert entropy(prob, state, eq.as_state()) == pytest.approx(0.0, abs=1e-14)
    assert production(prob, state, eq.as_state()) == pytest.approx(0.0, abs=1e-14)


def test_residual_history_monotone_tail():
    preset = pn_junction_preset("linear_r0", "pn")
    mesh = build_cartesian(16, 16, dirichlet_predicate=preset.dirichlet_predicate)
    eq = solve_equilibrium(preset.build(mesh))
    assert eq.iterations >= 1
    assert eq.residual == eq.residual_history[-1]
    assert eq.residual_history[-1] < eq.residual_history[0]
