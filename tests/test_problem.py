import numpy as np
import pytest

from driftfv.constitutive import PressureLaw, enthalpy
from driftfv.mesh import build_cartesian
from driftfv.problem import (NO_RECOMBINATION, PRESET_CASES, PRESET_DOPINGS,
                             HypothesisError, RecombinationModel,
                             discretize_data, evaluate_recombination,
                             pn_junction_preset)

SRH = RecombinationModel("srh", scale=10.0, tau_n=1.0, tau_p=1.0, tau_c=1.0)
AUGER = RecombinationModel("auger", c_n=0.1, c_p=0.1)


def test_recombination_values():
    r, r0 = evaluate_recombination(SRH, 1.0, 1.0)
    assert r == 0.0
    r, r0 = evaluate_recombination(SRH, 2.0, 2.0)
    assert r == pytest.approx(6.0)  # 10 * (4-1) / 5
    assert r0 == pytest.approx(2.0)
    r, _ = evaluate_recombination(AUGER, 2.0, 0.5)
    assert r == 0.0
    r, r0 = evaluate_recombination(NO_RECOMBINATION, 3.0, 3.0)
    assert r == 0.0 and r0 == 0.0


def test_recombination_r0_nonnegative():
    rng = np.random.default_rng(1)
    n = rng.uniform(0.0, 10.0, 500)
    p = rng.uniform(0.0, 10.0, 500)
    for model in (SRH, AUGER):
        assert np.all(model.r0(n, p) >= 0.0)


def test_recombination_unknown_kind():
    with pytest.raises(ValueError):
        RecombinationModel("shockley")


def test_recombination_entropy_sign():
    # R0(n,p)(np-1) log(np) >= 0 for all positive densities.
    rng = np.random.default_rng(6)
    n = rng.uniform(0.01, 10.0, 2000)
    p = rng.uniform(0.01, 10.0, 2000)
    for model in (SRH, AUGER):
        r, _ = evaluate_recombination(model, n, p)
        assert np.all(r * np.log(n * p) >= -1e-14)


def _constant_problem(law=PressureLaw.isothermal(), recomb=NO_RECOMBINATION,
                      n_d=2.0, p_d=0.5, nx=2, ny=2):
    mesh = build_cartesian(nx, ny)
    psi_d = 0.5 * (float(enthalpy(law, n_d)) - float(enthalpy(law, p_d)))
    return discretize_data(
        mesh, law, 1.0, lambda x, y: 0.0,
        lambda x, y: n_d, lambda x, y: p_d,
        lambda x, y: n_d, lambda x, y: p_d, lambda x, y: psi_d,
        recomb)


def test_discretize_constant_data():
    prob = _constant_problem()
    assert np.allclose(prob.n_initial, 2.0)
    assert np.allclose(prob.p_initial, 0.5)
    assert prob.m == 0.5 and prob.M == 2.0
    assert prob.alpha_n == pytest.approx(np.log(2.0) - prob.psi_dirichlet[0])
    assert not prob.experimental


def test_discretize_compatibility_constants():
    # Psi^D = (h(N^D)-h(P^D))/2 gives alpha_N = alpha_P = (h(N^D)+h(P^D))/2.
    prob = _constant_problem(n_d=np.e, p_d=1.0 / np.e)
    assert prob.alpha_n == pytest.approx(0.0, abs=1e-14)
    assert prob.alpha_p == pytest.approx(0.0, abs=1e-14)


def test_mass_action_violation_rejected():
    with pytest.raises(HypothesisError, match="mass action"):
        _constant_problem(recomb=SRH, n_d=2.0, p_d=3.0)


def test_nonlinear_with_recombination_rejected():
    with pytest.raises(HypothesisError, match="isothermal"):
        _constant_problem(law=PressureLaw.power(5.0 / 3.0), recomb=SRH,
                          n_d=2.0, p_d=0.5)


def test_negative_density_rejected():
    mesh = build_cartesian(2, 2)
    with pytest.raises(HypothesisError, match="nonnegative"):
        discretize_data(mesh, PressureLaw.isothermal(), 1.0,
                        lambda x, y: 0.0, lambda x, y: -1.0, lambda x, y: 1.0,
                        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: 0.0)


@pytest.mark.parametrize("field, data, message", [
    ("n_initial", lambda x, y: np.nan, "density data"),
    ("p_dirichlet", lambda x, y: np.inf, "density data"),
    ("doping", lambda x, y: np.nan, "doping"),
    ("psi_dirichlet", lambda x, y: -np.inf, "Dirichlet potential")])
def test_nonfinite_data_rejected(field, data, message):
    args = dict(doping=lambda x, y: 0.0, n_initial=lambda x, y: 1.0,
                p_initial=lambda x, y: 1.0, n_dirichlet=lambda x, y: 1.0,
                p_dirichlet=lambda x, y: 1.0, psi_dirichlet=lambda x, y: 0.0)
    args[field] = data
    with pytest.raises(HypothesisError, match=f"{message} must be finite"):
        discretize_data(build_cartesian(2, 2), PressureLaw.isothermal(), 1.0, **args)


def test_incompatible_boundary_rejected():
    mesh = build_cartesian(2, 2)
    # Psi^D varies while h(N^D) is constant: alpha_N is not constant.
    with pytest.raises(HypothesisError, match="compatibility"):
        discretize_data(mesh, PressureLaw.isothermal(), 1.0,
                        lambda x, y: 0.0, lambda x, y: 1.0, lambda x, y: 1.0,
                        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: x)


@pytest.mark.parametrize("case", PRESET_CASES)
@pytest.mark.parametrize("doping", PRESET_DOPINGS)
def test_presets_validate(case, doping):
    preset = pn_junction_preset(case, doping)
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    hn = enthalpy(prob.law, prob.n_dirichlet)
    hp = enthalpy(prob.law, prob.p_dirichlet)
    assert np.max(np.abs(hn - prob.psi_dirichlet - prob.alpha_n)) <= 1e-12
    assert np.max(np.abs(hp + prob.psi_dirichlet - prob.alpha_p)) <= 1e-12
    assert prob.lambda2 == 1.0
    assert prob.experimental == (case == "nonlinear_degenerate")


def test_preset_values():
    prob = pn_junction_preset("linear_r0", "zero").build(
        build_cartesian(4, 4, dirichlet_predicate=lambda x, y: y < 1e-12))
    assert prob.M == pytest.approx(np.e)
    assert prob.m == pytest.approx(1.0 / np.e)
    assert np.allclose(prob.doping, 0.0)

    nond = pn_junction_preset("nonlinear_nondegenerate", "pn")
    mesh = build_cartesian(8, 8, dirichlet_predicate=nond.dirichlet_predicate)
    prob = nond.build(mesh)
    assert prob.m == pytest.approx(0.1)
    assert prob.M == pytest.approx(0.9)
    assert prob.recombination.is_none
    # P-region [0, 0.5] x [0.5, 1] carries doping -1, the rest +1.
    in_p = (mesh.cell_centers[:, 0] < 0.5) & (mesh.cell_centers[:, 1] > 0.5)
    assert np.all(prob.doping[in_p] == -1.0)
    assert np.all(prob.doping[~in_p] == 1.0)
    assert prob.doping_inf_norm == 1.0


def test_preset_srh_form():
    preset = pn_junction_preset("linear_srh", "zero")
    assert preset.recombination.r0(1.0, 1.0) == pytest.approx(10.0 / 3.0)
    preset = pn_junction_preset("linear_auger", "zero")
    assert preset.recombination.r0(1.0, 1.0) == pytest.approx(0.2)


def test_preset_dirichlet_geometry():
    preset = pn_junction_preset("linear_r0", "zero")
    mesh = build_cartesian(8, 8, dirichlet_predicate=preset.dirichlet_predicate)
    # Bottom boundary (8 edges) plus the left quarter of the top (2 edges).
    assert mesh.n_dirichlet == 10
    assert len(mesh.neumann_edges) == 8 + 8 + 6


def test_unknown_preset():
    with pytest.raises(ValueError):
        pn_junction_preset("cubic")
    with pytest.raises(ValueError):
        pn_junction_preset("linear_r0", "checkerboard")


def test_initial_profile_matches_contacts():
    preset = pn_junction_preset("linear_r0", "zero")
    mesh = build_cartesian(16, 16, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    y = mesh.cell_centers[:, 1]
    expected = 1.0 + (np.e - 1.0) * (1.0 - np.sqrt(y))
    assert np.allclose(prob.n_initial, expected)
