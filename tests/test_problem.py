import dataclasses

import numpy as np
import pytest

from driftfv import sparse
from driftfv.constitutive import PressureLaw, enthalpy
from driftfv.equilibrium import solve_equilibrium
from driftfv.mesh import NEUMANN, build_cartesian
from driftfv.problem import (NO_RECOMBINATION, PRESET_CASES, PRESET_DOPINGS,
                             HypothesisError, Problem, RecombinationModel,
                             discretize_data, pn_junction_preset)
from driftfv.transient import Stepper, StepperConfig

SRH = RecombinationModel("srh", scale=10.0, tau_n=1.0, tau_p=1.0, tau_c=1.0)
AUGER = RecombinationModel("auger", c_n=0.1, c_p=0.1)


def test_recombination_values():
    assert SRH.rate(1.0, 1.0) == 0.0
    assert SRH.rate(2.0, 2.0) == pytest.approx(6.0)  # 10 * (4-1) / 5
    assert SRH.r0(2.0, 2.0) == pytest.approx(2.0)
    assert AUGER.rate(2.0, 0.5) == 0.0
    assert NO_RECOMBINATION.rate(3.0, 3.0) == 0.0
    assert NO_RECOMBINATION.r0(3.0, 3.0) == 0.0


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
        r = model.rate(n, p)
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


_DATA = ("mesh", "law", "lambda2", "doping", "n_dirichlet", "p_dirichlet",
         "psi_dirichlet", "n_initial", "p_initial", "recombination")
_DERIVED = ("m", "M", "alpha_n", "alpha_p", "experimental")


@pytest.mark.parametrize("case, doping", [
    ("linear_srh", "pn"), ("nonlinear_nondegenerate", "zero"),
    ("nonlinear_degenerate", "pn")])
def test_directly_built_problem_derives_what_discretize_data_gives(case, doping):
    preset = pn_junction_preset(case, doping)
    built = preset.build(build_cartesian(
        6, 6, dirichlet_predicate=preset.dirichlet_predicate))
    direct = Problem(**{name: getattr(built, name) for name in _DATA})
    for name in _DERIVED:
        assert getattr(direct, name) == getattr(built, name), name
    assert np.array_equal(direct.poisson_dirichlet, built.poisson_dirichlet)


def test_derived_data_follows_replaced_fields():
    prob = _constant_problem()
    assert prob.m == 0.5 and not prob.experimental
    lower = dataclasses.replace(prob, n_initial=np.full_like(prob.n_initial, 0.25))
    assert lower.m == 0.25 and lower.M == 2.0
    degenerate = dataclasses.replace(prob, p_initial=np.zeros_like(prob.p_initial))
    assert degenerate.m == 0.0 and degenerate.experimental
    assert Stepper(degenerate, StepperConfig()).bounds.lower(1) == 0.0


def test_derived_data_is_read_only():
    prob = _constant_problem()
    for name in _DERIVED + ("poisson_dirichlet",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prob, name, 1.0)


def test_poisson_dirichlet_term_assembled_once(monkeypatch):
    preset = pn_junction_preset("linear_r0", "pn")
    prob = preset.build(build_cartesian(
        6, 6, dirichlet_predicate=preset.dirichlet_predicate))
    real, assembled = sparse.tpfa_operator, []

    def counting(mesh, a_fwd, a_bwd, diag, u_dirichlet):
        if u_dirichlet is prob.psi_dirichlet and np.isscalar(diag):
            assembled.append(diag)
        return real(mesh, a_fwd, a_bwd, diag, u_dirichlet)

    monkeypatch.setattr(sparse, "tpfa_operator", counting)
    solve_equilibrium(prob)
    Stepper(prob, StepperConfig()).initial_state()
    assert assembled == [0.0]


def test_mass_action_violation_rejected():
    with pytest.raises(HypothesisError, match="mass action"):
        _constant_problem(recomb=SRH, n_d=2.0, p_d=3.0)


@pytest.mark.parametrize("recomb, name", [
    (RecombinationModel("srh", tau_n=-1.0, tau_p=-1.0), "tau_n"),
    (RecombinationModel("srh", tau_p=-1.0), "tau_p"),
    (RecombinationModel("srh", scale=-5.0), "scale"),
    (RecombinationModel("srh", scale=np.nan), "scale"),
    (RecombinationModel("srh", tau_c=0.0), "tau_c"),
    (RecombinationModel("srh", tau_n=np.inf), "tau_n"),
    (RecombinationModel("auger", c_n=-1.0), "c_n"),
    (RecombinationModel("auger", c_n=np.nan), "c_n"),
    (RecombinationModel("auger", c_p=np.inf), "c_p"),
    # Unused parameters of the none model are checked like any other.
    (RecombinationModel("none", scale=-5.0), "scale"),
    (RecombinationModel("none", c_n=np.nan), "c_n")])
def test_bad_recombination_parameter_rejected(recomb, name):
    # n_d p_d = 1: mass action holds, so only the parameter is at fault.
    with pytest.raises(HypothesisError, match=f"recombination parameter {name} "):
        _constant_problem(recomb=recomb, n_d=2.0, p_d=0.5)


def test_zero_recombination_parameters_accepted():
    # R0 = 0 is allowed; only tau_c must be positive.
    for recomb in (RecombinationModel("srh", scale=0.0, tau_n=0.0, tau_p=0.0),
                   RecombinationModel("auger", c_n=0.0, c_p=0.0)):
        assert _constant_problem(recomb=recomb, n_d=2.0, p_d=0.5).recombination is recomb


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
    assert len(np.nonzero(mesh.edge_kind == NEUMANN)[0]) == 8 + 8 + 6


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


_DATA_FIELDS = (("doping", "cells"), ("n_initial", "cells"), ("p_initial", "cells"),
                ("n_dirichlet", "edges"), ("p_dirichlet", "edges"),
                ("psi_dirichlet", "edges"))


@pytest.mark.parametrize("case", PRESET_CASES)
@pytest.mark.parametrize("doping", PRESET_DOPINGS)
def test_preset_data_match_pointwise_evaluation(case, doping):
    preset = pn_junction_preset(case, doping)
    mesh = build_cartesian(7, 5, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    de = mesh.dirichlet_edges
    points = {"cells": mesh.cell_centers,
              "edges": 0.5 * (mesh.edge_p1[de] + mesh.edge_p2[de])}
    for name, where in _DATA_FIELDS:
        f = getattr(preset, name)
        want = np.array([float(f(x, y)) for x, y in points[where]])
        got = getattr(prob, name)
        assert got.dtype == np.float64, name
        assert np.array_equal(got, want), name


def test_scalar_data_broadcast():
    mesh = build_cartesian(3, 2)
    prob = discretize_data(mesh, PressureLaw.isothermal(), 1.0,
                           lambda x, y: 0, lambda x, y: 2, lambda x, y: 0.5,
                           lambda x, y: 2.0, lambda x, y: np.float64(0.5),
                           lambda x, y: np.array(0.5 * np.log(4.0)))
    for name, value in (("doping", 0.0), ("n_initial", 2.0), ("p_initial", 0.5)):
        values = getattr(prob, name)
        assert values.dtype == np.float64 and values.shape == (mesh.n_cells,), name
        assert np.all(values == value), name
    for name, value in (("n_dirichlet", 2.0), ("p_dirichlet", 0.5),
                        ("psi_dirichlet", 0.5 * np.log(4.0))):
        values = getattr(prob, name)
        assert values.dtype == np.float64 and values.shape == (mesh.n_dirichlet,), name
        assert np.all(values == value), name
    # Each array is the problem's own, not a broadcast view.
    prob.n_initial[0] = 3.0
    assert prob.n_initial[1] == 2.0


def test_data_callables_get_coordinate_arrays():
    mesh = build_cartesian(4, 3)
    calls = []

    def spy(value):
        def f(x, y):
            calls.append((np.shape(x), np.shape(y)))
            return value + 0.0 * x
        return f

    discretize_data(mesh, PressureLaw.isothermal(), 1.0, spy(0.0), spy(1.0),
                    spy(1.0), spy(1.0), spy(1.0), spy(0.0))
    cells, edges = (mesh.n_cells,), (mesh.n_dirichlet,)
    assert sorted(calls) == sorted([(cells, cells)] * 3 + [(edges, edges)] * 3)
