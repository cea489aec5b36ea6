import dataclasses

import numpy as np
import pytest

from driftfv.constitutive import PressureLaw, big_h, enthalpy
from driftfv.diagnostics import (DiagnosticsRecord, check_entropy_chain,
                                 entropy, entropy_slack_tolerance,
                                 f_functional, fit_decay_rate, make_record,
                                 production, read_csv, write_csv)
from driftfv.equilibrium import solve_equilibrium
from driftfv.mesh import (INTERIOR, NEUMANN, build_cartesian,
                          import_triangulation, seminorm_h1)
from driftfv.problem import (State, contact_predicate, discretize_data,
                             pn_junction_preset)
from driftfv.transient import StepperConfig, run


def _single_cell_problem():
    return discretize_data(
        build_cartesian(1, 1), PressureLaw.isothermal(), 1.0,
        lambda x, y: 0.0, lambda x, y: 1.0, lambda x, y: 1.0,
        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: 0.0)


def _state(n, p, psi):
    return State(np.array(n, float), np.array(p, float), np.array(psi, float))


def test_entropy_single_cell():
    # H(e) - H(1) - h(1)(e - 1) = 1 on a unit cell.
    prob = _single_cell_problem()
    eq = _state([1.0], [1.0], [0.0])
    state = _state([np.e], [1.0], [0.0])
    assert entropy(prob, state, eq) == pytest.approx(1.0)
    assert entropy(prob, eq, eq) == 0.0


def test_entropy_positive_on_perturbations():
    preset = pn_junction_preset("linear_r0", "zero")
    mesh = build_cartesian(6, 6, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    rng = np.random.default_rng(2)
    for _ in range(20):
        state = State(
            eq.n * np.exp(rng.uniform(-0.5, 0.5, mesh.n_cells)),
            eq.p * np.exp(rng.uniform(-0.5, 0.5, mesh.n_cells)),
            eq.psi + rng.uniform(-0.5, 0.5, mesh.n_cells))
        assert entropy(prob, state, eq) > 0.0


def test_production_two_cell():
    # Two cells, tau=2 on the interior edge, Psi=0, N=(1,e), P=(1,1):
    # I = 2 * min(1, e) * (D log N)^2 = 2.
    prob = discretize_data(
        build_cartesian(2, 1, dirichlet_predicate=lambda x, y: y < 1e-12),
        PressureLaw.isothermal(), 1.0,
        lambda x, y: 0.0, lambda x, y: 1.0, lambda x, y: 1.0,
        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: 0.0)
    eq = _state([1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    n = np.zeros(2)
    order = np.argsort(prob.mesh.cell_centers[:2, 0])
    n[order] = [1.0, np.e]
    state = _state(n, [1.0, 1.0], [0.0, 0.0])
    # Dirichlet edges also contribute: suppress them by matching boundary data.
    prob = dataclasses.replace(
        prob, n_dirichlet=n[prob.mesh.edge_cells[prob.mesh.dirichlet_edges, 0]])
    assert production(prob, state, eq) == pytest.approx(2.0)


def test_production_zero_at_equilibrium():
    preset = pn_junction_preset("linear_auger", "pn")
    mesh = build_cartesian(6, 6, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    assert production(prob, eq, eq) == pytest.approx(0.0, abs=1e-13)


def test_production_handles_zero_density():
    prob = _single_cell_problem()
    eq = _state([1.0], [1.0], [0.0])
    state = _state([0.0], [1.0], [0.0])
    prob = dataclasses.replace(prob, n_dirichlet=np.zeros(prob.mesh.n_dirichlet))
    value = production(prob, state, eq)
    assert np.isfinite(value)


def test_f_functional():
    prob = _single_cell_problem()
    eq = _state([1.0], [1.0], [0.0])
    state = _state([3.0], [1.0], [0.0])
    assert f_functional(prob, state, eq) == pytest.approx(4.0)
    assert f_functional(prob, eq, eq) == 0.0


def _records_from_entropy(ts, es):
    out = []
    for i, (t, e) in enumerate(zip(ts, es)):
        out.append(DiagnosticsRecord(
            step=i, t=t, entropy=e, production=0.0, f_functional=0.0,
            l2_n=0.0, l2_p=0.0, l2_psi=0.0, min_n=0.0, max_n=0.0,
            min_p=0.0, max_p=0.0, fp_iters=0,
            slack=(out[-1].entropy - e) if out else 0.0))
    return out


def test_fit_decay_exact_exponential():
    ts = np.linspace(0.0, 5.0, 200)
    fit = fit_decay_rate(_records_from_entropy(ts, 5.0 * np.exp(-2.0 * ts)))
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_constant_series():
    ts = np.linspace(0.0, 1.0, 50)
    fit = fit_decay_rate(_records_from_entropy(ts, np.full(50, 3.0)))
    assert fit.rate == 0.0
    assert fit.r_squared == 1.0


def test_fit_decay_floor_and_window():
    ts = np.linspace(0.0, 10.0, 100)
    es = np.where(ts < 5.0, np.exp(-3.0 * ts), 1e-16)
    fit = fit_decay_rate(_records_from_entropy(ts, es), floor=1e-6)
    assert fit.floor == 1e-6
    assert fit.rate == pytest.approx(3.0, rel=1e-6)
    assert fit.t_end < 5.0
    with pytest.raises(ValueError, match="floor"):
        fit_decay_rate(_records_from_entropy(ts[:5], es[:5]), floor=2.0)


def test_fit_decay_default_floor():
    ts = np.linspace(0.0, 10.0, 101)
    es = 2.0 * np.exp(-3.0 * ts)
    fit = fit_decay_rate(_records_from_entropy(ts, es))
    assert fit.floor == 1e-10 * es[0]
    assert fit.n_points == np.count_nonzero(es > 1e-10 * es[0]) == 77
    assert fit.rate == pytest.approx(3.0, rel=1e-9)


def test_fit_decay_without_records_is_too_few_points():
    with pytest.raises(ValueError, match="only 0 entropy values"):
        fit_decay_rate([])


def test_check_entropy_chain():
    ts = np.linspace(0.0, 1.0, 20)
    good = _records_from_entropy(ts, np.exp(-ts))
    assert check_entropy_chain(good, 1e-10) == []
    bad = _records_from_entropy(ts, np.exp(-ts))
    bad[7].slack = -1.0  # hand-crafted increase beyond tolerance
    assert check_entropy_chain(bad, 1e-10) == [7]
    assert entropy_slack_tolerance(1e-10, 1.0) == pytest.approx(2e-9)


def test_csv_round_trip(tmp_path):
    preset = pn_junction_preset("linear_r0", "zero")
    mesh = build_cartesian(4, 4, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    _, records = run(prob, StepperConfig(dt=1e-2, t_end=0.05), eq)
    path = tmp_path / "diag.csv"
    write_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("step,t,E,I,F,")
    assert len(lines) == len(records) + 1
    # Every field, floats included: 17 digits round-trip exactly.
    assert read_csv(path) == records


def test_record_fields_populated():
    preset = pn_junction_preset("linear_srh", "pn")
    mesh = build_cartesian(4, 4, dirichlet_predicate=preset.dirichlet_predicate)
    prob = preset.build(mesh)
    eq = solve_equilibrium(prob)
    _, records = run(prob, StepperConfig(dt=1e-2, t_end=0.03), eq)
    first, last = records[0], records[-1]
    assert first.production == 0.0 and first.slack == 0.0 and first.fp_iters == 0
    assert last.production > 0.0
    assert last.fp_iters >= 1
    assert last.min_n > 0.0 and last.max_p < prob.M + 1e-9


def _fan_in_unit_square():
    """Fan of six acute triangles inside the unit square, with a Dirichlet
    edge above y = 0.5 and one below it; the other four are Neumann."""
    angles = np.arange(6) * np.pi / 3.0 + 0.07
    radii = 0.45 * np.array([1.0, 0.93, 1.05, 0.97, 1.02, 0.95])
    nodes = [(0.52, 0.49)] + list(zip(0.5 + radii * np.cos(angles),
                                      0.5 + radii * np.sin(angles)))
    triangles = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    labels = {(1 + i, 1 + (i + 1) % 6): "dirichlet" if i in (0, 3) else "neumann"
              for i in range(6)}
    return import_triangulation(nodes, triangles, labels)


def _per_edge_diagnostics(problem, state, eq):
    """(I, |Psi|_1, |Psi - Psi^eq|_1, E, F) summed one edge and one cell at
    a time, skipping the Neumann edges."""
    mesh, law = problem.mesh, problem.law

    def h(s):
        return float(enthalpy(law, max(s, 1e-300)))

    i_sum = psi_sq = dpsi_sq = 0.0
    j = 0  # Dirichlet edge j is the j-th Dirichlet edge in the edge list
    for e in range(mesh.n_edges):
        if mesh.edge_kind[e] == NEUMANN:
            continue
        k, ell = mesh.edge_cells[e]
        tau = mesh.edge_tau[e]
        if mesh.edge_kind[e] == INTERIOR:
            n_s, p_s, psi_s, eq_psi_s = state.n[ell], state.p[ell], state.psi[ell], eq.psi[ell]
        else:
            n_s, p_s = problem.n_dirichlet[j], problem.p_dirichlet[j]
            psi_s = eq_psi_s = problem.psi_dirichlet[j]
            j += 1
        dpsi = psi_s - state.psi[k]
        for s_k, s_s, sign in ((state.n[k], n_s, 1.0), (state.p[k], p_s, -1.0)):
            least = min(s_k, s_s)
            if least > 0.0:
                i_sum += tau * least * (h(s_s) - h(s_k) - sign * dpsi) ** 2
        psi_sq += tau * dpsi ** 2
        dpsi_sq += tau * (psi_s - eq_psi_s - state.psi[k] + eq.psi[k]) ** 2
    e_sum = f_sum = 0.0
    for c in range(mesh.n_cells):
        mk = mesh.cell_measures[c]
        n, p, n_eq, p_eq = state.n[c], state.p[c], eq.n[c], eq.p[c]
        if not problem.recombination.is_none:
            i_sum += (mk * problem.recombination.rate(n, p)
                      * (h(n) + h(p) - h(n_eq) - h(p_eq)))
        for s, s_eq in ((n, n_eq), (p, p_eq)):
            e_sum += mk * (big_h(law, s) - big_h(law, s_eq) - h(s_eq) * (s - s_eq))
            f_sum += mk * (s - s_eq) ** 2
    half = 0.5 * problem.lambda2 * dpsi_sq
    return i_sum, np.sqrt(psi_sq), np.sqrt(dpsi_sq), e_sum + half, f_sum + half


@pytest.mark.parametrize("case", ["linear_srh", "nonlinear_nondegenerate"])
@pytest.mark.parametrize("make_mesh", [
    lambda: build_cartesian(8, 8, dirichlet_predicate=contact_predicate),
    _fan_in_unit_square], ids=["contacts-8x8", "fan"])
def test_diagnostics_match_per_edge_oracle(make_mesh, case):
    mesh = make_mesh()
    assert len(np.nonzero(mesh.edge_kind == NEUMANN)[0]) and mesh.n_dirichlet
    prob = pn_junction_preset(case, "pn").build(mesh)
    eq = solve_equilibrium(prob)
    rng = np.random.default_rng(11)
    state = State(prob.n_initial * np.exp(rng.uniform(-0.3, 0.3, mesh.n_cells)),
                  prob.p_initial * np.exp(rng.uniform(-0.3, 0.3, mesh.n_cells)),
                  eq.psi + rng.uniform(-0.3, 0.3, mesh.n_cells), step=1, time=0.01)
    i_want, psi_want, dpsi_want, e_want, f_want = _per_edge_diagnostics(prob, state, eq)
    record = make_record(state, eq, prob, 3, None)
    assert production(prob, state, eq) == pytest.approx(i_want, rel=1e-13)
    assert record.production == pytest.approx(i_want, rel=1e-13)
    assert seminorm_h1(mesh, state.psi, prob.psi_dirichlet) == pytest.approx(
        psi_want, rel=1e-13)
    assert seminorm_h1(mesh, state.psi - eq.psi, 0.0) == pytest.approx(dpsi_want, rel=1e-13)
    assert record.entropy == pytest.approx(e_want, rel=1e-13)
    assert record.f_functional == pytest.approx(f_want, rel=1e-13)
