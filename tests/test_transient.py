import numpy as np
import pytest

from driftfv.constitutive import PressureLaw
from driftfv.equilibrium import solve_equilibrium
from driftfv.mesh import build_cartesian
from driftfv.problem import (HypothesisError, discretize_data,
                             pn_junction_preset)
from driftfv import transient
from driftfv.transient import (BoundsTracker, InvariantError, Stepper,
                               StepperConfig, run)


def _preset_problem(case="linear_r0", doping="zero", nx=8):
    preset = pn_junction_preset(case, doping)
    mesh = build_cartesian(nx, nx, dirichlet_predicate=preset.dirichlet_predicate)
    return preset.build(mesh)


def test_config_validation():
    prob = _preset_problem(doping="pn")
    with pytest.raises(HypothesisError):
        StepperConfig(dt=-1.0).validate(prob)
    with pytest.raises(HypothesisError):
        StepperConfig(dt=2.0).validate(prob)  # dt > lambda^2/||C||
    with pytest.raises(HypothesisError):
        StepperConfig(damping=0.0).validate(prob)
    for bad in (dict(dt=float("nan")), dict(dt=float("inf")),
                dict(t_end=float("nan")), dict(t_end=float("inf")),
                dict(t_end=-1.0)):
        with pytest.raises(HypothesisError):
            StepperConfig(**bad).validate(prob)
    StepperConfig(dt=0.5).validate(prob)


def test_bounds_tracker():
    prob = _preset_problem(doping="zero")
    tracker = BoundsTracker(prob, 0.01)
    assert tracker.lower(50) == prob.m
    assert tracker.upper(50) == prob.M

    prob = _preset_problem(doping="pn")
    tracker = BoundsTracker(prob, 0.01)
    assert tracker.lower(0) == prob.m
    lows = [tracker.lower(n) for n in range(5)]
    highs = [tracker.upper(n) for n in range(5)]
    assert all(np.diff(lows) < 0.0)
    assert all(np.diff(highs) > 0.0)


def test_poisson_constant_data():
    prob = discretize_data(
        build_cartesian(6, 6), PressureLaw.isothermal(), 1.0,
        lambda x, y: 0.0, lambda x, y: 1.0, lambda x, y: 1.0,
        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: 0.7)
    psi = Stepper(prob, StepperConfig()).solve_poisson(prob.n_initial, prob.p_initial)
    assert np.allclose(psi, 0.7, atol=1e-12)


def test_poisson_single_cell():
    # One cell with 4 Dirichlet edges of tau=2, Psi^D=0, source P-N+C = 4:
    # sum tau * Psi_K = 4 so Psi_K = 0.5.
    prob = discretize_data(
        build_cartesian(1, 1), PressureLaw.isothermal(), 1.0,
        lambda x, y: 4.0, lambda x, y: 1.0, lambda x, y: 1.0,
        lambda x, y: 1.0, lambda x, y: 1.0, lambda x, y: 0.0)
    psi = Stepper(prob, StepperConfig()).solve_poisson(np.array([1.0]), np.array([1.0]))
    assert psi[0] == pytest.approx(0.5)


def test_poisson_linear_profile():
    pred = lambda x, y: x < 1e-12 or x > 1.0 - 1e-12
    prob = discretize_data(
        build_cartesian(3, 1, dirichlet_predicate=pred),
        PressureLaw.isothermal(), 1.0,
        lambda x, y: 0.0, lambda x, y: 1.0, lambda x, y: 1.0,
        lambda x, y: np.exp(x), lambda x, y: np.exp(-x), lambda x, y: x)
    psi = Stepper(prob, StepperConfig()).solve_poisson(prob.n_initial, prob.p_initial)
    order = np.argsort(prob.mesh.cell_centers[:, 0])
    assert np.allclose(psi[order], [1.0 / 6.0, 0.5, 5.0 / 6.0])


def test_advance_preserves_equilibrium():
    prob = _preset_problem("linear_r0", "pn")
    eq = solve_equilibrium(prob)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    tracker = BoundsTracker(prob, config.dt)
    state, report = stepper.advance(eq.as_state(), tracker)
    assert report.iterations == 1
    assert np.max(np.abs(state.n.cell_values - eq.n.cell_values)) <= config.fp_tol
    assert np.max(np.abs(state.p.cell_values - eq.p.cell_values)) <= config.fp_tol


def test_advance_reports_m_matrices():
    prob = _preset_problem("linear_srh", "zero", nx=4)
    config = StepperConfig(dt=1e-2, check_m_matrices=True)
    stepper = Stepper(prob, config)
    tracker = BoundsTracker(prob, config.dt)
    state, report = stepper.advance(stepper.initial_state(), tracker)
    assert state.step == 1
    assert state.time == pytest.approx(config.dt)


def test_m_matrix_check_rejects_positive_offdiagonal(monkeypatch):
    real = transient.flux_coefficients

    def negative_backward(dpsi, dr):
        a_fwd, a_bwd = real(dpsi, dr)
        return a_fwd, -a_bwd

    monkeypatch.setattr(transient, "flux_coefficients", negative_backward)
    prob = _preset_problem("linear_r0", "zero", nx=4)
    config = StepperConfig(dt=1e-2, check_m_matrices=True)
    stepper = Stepper(prob, config)
    with pytest.raises(InvariantError, match="A_N is not an M-matrix"):
        stepper.advance(stepper.initial_state(), BoundsTracker(prob, config.dt))


def test_linearized_step_nonnegative_outputs():
    prob = _preset_problem("linear_r0", "zero", nx=4)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    rng = np.random.default_rng(8)
    for _ in range(10):
        n_it = rng.uniform(0.0, 3.0, prob.mesh.n_cells)
        p_it = rng.uniform(0.0, 3.0, prob.mesh.n_cells)
        psi = stepper.solve_poisson(n_it, p_it)
        mu = config.dt * max(3.0, prob.M)
        n_hat, p_hat = stepper.linearized_density_step(
            n_it, p_it, psi, prob.n_initial, prob.p_initial, mu)
        assert np.all(n_hat >= 0.0)
        assert np.all(p_hat >= 0.0)


def test_scheme_residual_small_after_step():
    prob = _preset_problem("linear_auger", "zero", nx=4)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    tracker = BoundsTracker(prob, config.dt)
    state0 = stepper.initial_state()
    state, report = stepper.advance(state0, tracker)
    assert report.residual <= 10.0 * config.fp_tol
    rn, rp = stepper.scheme_residuals(
        state.n.cell_values, state.p.cell_values, state.psi.cell_values,
        state0.n.cell_values, state0.p.cell_values)
    assert np.max(np.abs(rn)) <= 10.0 * config.fp_tol
    assert np.max(np.abs(rp)) <= 10.0 * config.fp_tol


def test_run_zero_steps():
    prob = _preset_problem()
    eq = solve_equilibrium(prob)
    state, records = run(prob, StepperConfig(dt=1e-2, t_end=0.0), eq)
    assert len(records) == 1
    assert records[0].step == 0
    assert state.step == 0


def test_run_step_count_and_decay():
    prob = _preset_problem()
    eq = solve_equilibrium(prob)
    state, records = run(prob, StepperConfig(dt=1e-2, t_end=0.3), eq)
    assert len(records) == 31
    entropies = [r.entropy for r in records]
    assert all(np.diff(entropies) < 0.0)
    assert state.time == pytest.approx(0.3)


def test_run_equilibrium_start_stays_flat():
    prob = _preset_problem("linear_r0", "pn")
    eq = solve_equilibrium(prob)
    _, records = run(prob, StepperConfig(dt=1e-2, t_end=0.1), eq)
    scale = 1e-10 * (1.0 + records[0].entropy)
    # The run starts from the interpolated profile, not equilibrium; redo
    # from equilibrium initial data by swapping the initial fields.
    prob.n_initial = eq.n.cell_values.copy()
    prob.p_initial = eq.p.cell_values.copy()
    _, records = run(prob, StepperConfig(dt=1e-2, t_end=0.1), eq)
    assert all(r.entropy <= 1e-8 for r in records)


def test_maximum_principle_c_zero():
    prob = _preset_problem("nonlinear_nondegenerate", "zero", nx=6)
    eq = solve_equilibrium(prob)
    _, records = run(prob, StepperConfig(dt=1e-2, t_end=0.3), eq)
    for r in records:
        assert r.min_n >= 0.1 - 1e-9
        assert r.max_n <= 0.9 + 1e-9
        assert r.min_p >= 0.1 - 1e-9
        assert r.max_p <= 0.9 + 1e-9
