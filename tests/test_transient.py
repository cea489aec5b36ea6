import dataclasses
import re

import numpy as np
import pytest

from driftfv import sparse as la
from driftfv.constitutive import PressureLaw, dr_mean
from driftfv.equilibrium import solve_equilibrium
from driftfv.flux import flux_coefficients
from driftfv.mesh import build_cartesian
from driftfv.problem import (HypothesisError, discretize_data,
                             pn_junction_preset)
from driftfv.sparse import tpfa_operator
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
    for bad in (dict(dt=float("nan")), dict(dt=float("inf")),
                dict(t_end=float("nan")), dict(t_end=float("inf")),
                dict(t_end=-1.0), dict(fp_tol=float("nan")),
                dict(fp_tol=float("inf")), dict(fp_tol=-1e-10),
                dict(fp_max_iter=0), dict(t_end=1e308), dict(dt=1e-320)):
        with pytest.raises(HypothesisError):
            StepperConfig(**bad).validate(prob)
    for bad in (dict(tol=float("nan")), dict(tol=-1.0), dict(max_iter=0)):
        with pytest.raises(HypothesisError):
            solve_equilibrium(prob, **bad)
    StepperConfig(dt=0.5).validate(prob)
    # A positive end time shorter than one step would run no step at all.
    with pytest.raises(HypothesisError, match=r"end time 0\.005 .* time step 0\.01"):
        StepperConfig(dt=0.01, t_end=0.005).validate(prob)
    StepperConfig(dt=0.01, t_end=0.0).validate(prob)
    StepperConfig(dt=0.01, t_end=0.01).validate(prob)


def test_time_step_at_the_doping_limit_is_rejected():
    # The upper bound M (1 - dt ||C||/lambda^2)^{-n} is infinite at equality.
    prob = _preset_problem(doping="pn")
    limit = prob.lambda2 / prob.doping_inf_norm
    with pytest.raises(HypothesisError, match="must be below lambda"):
        StepperConfig(dt=limit, t_end=limit).validate(prob)
    dt = 0.5 * limit
    StepperConfig(dt=dt, t_end=dt).validate(prob)
    assert np.isfinite(BoundsTracker(prob, dt).upper(3))


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
    # Past the float range the upper bound is vacuous, as the lower one
    # underflows to zero, and neither raises.
    assert tracker.upper(10**6) == np.inf
    assert tracker.lower(10**6) == 0.0


def test_doped_decay_does_not_stall_on_the_penalty():
    # The penalty is dt M for the whole run.  One built from the growing
    # bound M^{n+1} slowed the iteration until the increment test stopped it
    # early, and l2_N stalled at 5.5e-10.
    prob = _preset_problem("linear_r0", "pn", nx=8)
    _, records = run(prob, StepperConfig(t_end=8.0), solve_equilibrium(prob))
    assert len(records) == 801
    assert records[-1].l2_n < 1e-12


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
    state, report = stepper.advance(eq)
    assert report.iterations == 1
    assert np.max(np.abs(state.n - eq.n)) <= config.fp_tol
    assert np.max(np.abs(state.p - eq.p)) <= config.fp_tol


def test_advance_reports_m_matrices():
    prob = _preset_problem("linear_srh", "zero", nx=4)
    config = StepperConfig(dt=1e-2, check_m_matrices=True)
    stepper = Stepper(prob, config)
    state, report = stepper.advance(stepper.initial_state())
    assert state.step == 1
    assert state.time == pytest.approx(config.dt)


def test_m_matrices_checked_twice_per_picard_iteration(monkeypatch):
    prob = _preset_problem("nonlinear_nondegenerate", "pn", nx=6)
    eq = solve_equilibrium(prob)
    real = la.check_m_matrix
    checked = []

    def counting(A):
        checked.append(A.shape)
        return real(A)

    monkeypatch.setattr(la, "check_m_matrix", counting)
    _, records = run(prob, StepperConfig(dt=1e-2, t_end=0.05, check_m_matrices=True), eq)
    iterations = sum(r.fp_iters for r in records)
    assert iterations >= 5
    assert len(checked) == 2 * iterations


def test_density_csc_built_only_for_full_solves(monkeypatch):
    prob = _preset_problem("nonlinear_nondegenerate", "pn", nx=6)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    built, solved = [], []
    real_tocsc, real_solve = la.TpfaOperator.tocsc, la.solve

    def tocsc(self, **kwargs):
        built.append(self.shape)
        return real_tocsc(self, **kwargs)

    def solve(A, b, held=None):
        solved.append(A.shape)
        return real_solve(A, b, held)

    monkeypatch.setattr(la.TpfaOperator, "tocsc", tocsc)
    monkeypatch.setattr(la, "solve", solve)
    state, iterations = stepper.initial_state(), 0
    for _ in range(3):
        state, report = stepper.advance(state)
        iterations += report.iterations
    # Corrections and residual checks apply the operators without a matrix.
    assert len(built) == len(solved) < 2 * iterations


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
        stepper.advance(stepper.initial_state())


def test_linearized_step_nonnegative_outputs():
    prob = _preset_problem("linear_r0", "zero", nx=4)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    rng = np.random.default_rng(8)
    prev = np.stack([prob.n_initial, prob.p_initial])
    for _ in range(10):
        u = rng.uniform(0.0, 3.0, (2, prob.mesh.n_cells))
        psi = stepper.solve_poisson(u[0], u[1])
        n_hat, p_hat = stepper.linearized_density_step(u, psi, prev)
        assert np.all(n_hat >= 0.0)
        assert np.all(p_hat >= 0.0)


def test_scheme_residual_small_after_step():
    prob = _preset_problem("linear_auger", "zero", nx=4)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    state0 = stepper.initial_state()
    state, report = stepper.advance(state0)
    assert report.residual <= 10.0 * config.fp_tol
    rn, rp = stepper.scheme_residuals(
        np.stack([state.n, state.p]), state.psi, np.stack([state0.n, state0.p]))
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
    prob = dataclasses.replace(prob, n_initial=eq.n.copy(), p_initial=eq.p.copy())
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


def test_laplacian_factored_once_per_mesh(splu_calls):
    prob = _preset_problem("linear_r0", "zero", nx=8)
    L, _ = tpfa_operator(prob.mesh, 1.0, 1.0, 0.0, prob.psi_dirichlet)
    L = L.tocsc()
    eq = solve_equilibrium(prob)
    run(prob, StepperConfig(dt=1e-2, t_end=0.0), eq)

    def is_laplacian(A):
        scaled = L * (A[0, 0] / L[0, 0])
        return abs(A - scaled).max() <= 1e-15 * abs(scaled).max()

    assert sum(is_laplacian(A) for A, _ in splu_calls) == 1


def test_minimum_degree_runs_once_per_mesh(splu_calls):
    # The Laplacian's factor orders its mesh; every later factor on the mesh,
    # Newton's and the density blocks', comes laid out in that order.
    for case in ("linear_r0", "nonlinear_nondegenerate"):
        prob = _preset_problem(case, "pn", nx=8)
        before = len(splu_calls)
        run(prob, StepperConfig(dt=1e-2, t_end=0.05), solve_equilibrium(prob))
        specs = [spec for _, spec in splu_calls[before:]]
        assert specs[0] == "MMD_AT_PLUS_A"
        assert len(specs) > 1 and set(specs[1:]) == {"NATURAL"}


@pytest.mark.parametrize("max_iter, listed", [(2, 2), (12, 8)])
def test_picard_failure_reports_increment_history(max_iter, listed):
    prob = _preset_problem("nonlinear_degenerate", "zero", nx=4)
    config = StepperConfig(dt=1e-2, fp_tol=0.0, fp_max_iter=max_iter)
    stepper = Stepper(prob, config)
    with pytest.raises(la.SolverError) as info:
        stepper.advance(stepper.initial_state())
    message = str(info.value)
    assert f"did not converge in {max_iter} iterations" in message
    # fp_tol = 0 is never reached, so no residual check ran.
    assert "residual not checked" in message
    found = re.search(r"last increment (\S+),.*increment history: \[(.*)\]", message)
    history = re.findall(r"'([^']+)'", found.group(2))
    assert len(history) == listed
    assert all(float(inc) > 0.0 for inc in history)
    assert history[-1] == found.group(1)


def test_picard_budget_is_the_problems_unless_set():
    for case, budget in (("linear_r0", 200), ("nonlinear_degenerate", 2000)):
        prob = _preset_problem(case, nx=4)
        assert Stepper(prob, StepperConfig()).fp_max_iter == budget
        assert Stepper(prob, StepperConfig(fp_max_iter=7)).fp_max_iter == 7


def test_density_factors_reused_across_iterations_and_steps(monkeypatch, splu_calls):
    prob = _preset_problem("nonlinear_nondegenerate", "pn", nx=16)
    eq = solve_equilibrium(prob)
    config = StepperConfig(dt=1e-2, t_end=0.05)

    factored_before = len(splu_calls)
    _, corrected = run(prob, config, eq)
    corrected_factors = len(splu_calls) - factored_before
    density_solves = 2 * sum(r.fp_iters for r in corrected[1:])
    assert corrected_factors < density_solves / 4

    # Without the one-step correction every density solve goes through
    # sparse.solve: refinement on the held factor, or a fresh factor.
    monkeypatch.setattr(la, "correct", lambda A, b, x0, held: np.stack(
        [la.solve(A.block(s), b[s], h) for s, h in enumerate(held)]))
    factored_before = len(splu_calls)
    _, solved = run(prob, config, eq)
    assert corrected_factors < len(splu_calls) - factored_before
    for name in ("entropy", "l2_n", "l2_p", "l2_psi", "min_n", "min_p", "max_n", "max_p"):
        got, want = getattr(corrected[-1], name), getattr(solved[-1], name)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14), name


def test_refused_correction_goes_straight_to_a_fresh_factor(monkeypatch, splu_calls):
    prob = _preset_problem("nonlinear_nondegenerate", "pn", nx=16)
    eq = solve_equilibrium(prob)
    refined, fresh = [], []
    real_refine, real_factor = la._refine, la.factor

    def recording_refine(*args):
        refined.append(args[-1])
        return real_refine(*args)

    def recording_factor(A):
        fresh.append(real_factor(A))
        return fresh[-1]

    monkeypatch.setattr(la, "_refine", recording_refine)
    monkeypatch.setattr(la, "factor", recording_factor)
    factored_before = len(splu_calls)
    run(prob, StepperConfig(dt=1e-2, t_end=0.05), eq)
    # Some corrections are refused (more than the first two factors), and
    # none of them refines on the stale factor before factoring afresh:
    # refinement runs only on each fresh factor, once.
    assert len(splu_calls) - factored_before > 2
    assert len(refined) == len(fresh) and all(r is f for r, f in zip(refined, fresh))


def _per_species_systems(stepper, n_it, p_it, psi_cells, n_prev, p_prev, mu):
    """[(A_N, b_N), (A_P, b_P)] assembled one species at a time over the
    active edges, as a reference for the stacked block assembly."""
    mesh, pr, law = stepper.mesh, stepper.problem, stepper.law
    mk, dt, lam2 = mesh.cell_measures, stepper.config.dt, stepper.lam2
    first, other = mesh.active_cells
    psi = np.concatenate([psi_cells, pr.psi_dirichlet])
    dpsi = psi[other] - psi[first]
    if pr.recombination.is_none:
        r0 = np.zeros(mesh.n_cells)
    else:
        r0 = pr.recombination.r0(n_it, p_it)
    systems = []
    for dens, dens_dir, dpsi_s, prev, partner in (
            (n_it, pr.n_dirichlet, dpsi, n_prev, p_it),
            (p_it, pr.p_dirichlet, -dpsi, p_prev, n_it)):
        if law.is_isothermal:
            dr = 1.0
        else:
            ext = np.concatenate([dens, dens_dir])
            dr = dr_mean(law, ext[first], ext[other])
        a_fwd, a_bwd = flux_coefficients(dpsi_s, dr)
        pen = mk / dt * (1.0 + mu / lam2)
        A, g = la.tpfa_operator(mesh, a_fwd, a_bwd, pen + mk * r0 * partner, dens_dir)
        b = mk / dt * (mu / lam2 * dens + prev) + mk * r0
        systems.append((A, b + g))
    return systems


@pytest.mark.parametrize("case, doping", [
    ("linear_srh", "pn"), ("nonlinear_nondegenerate", "pn"),
    ("nonlinear_degenerate", "zero")])
def test_stacked_density_systems_match_per_species_reference(case, doping):
    prob = _preset_problem(case, doping, nx=8)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    prev = np.stack(prob.initial_state())
    n_prev, p_prev = prev
    u = prev
    mu = config.dt * prob.M  # the Stepper's penalty
    held = (la.HeldFactor(), la.HeldFactor())
    # The first iteration factors both systems; the later ones correct.
    for _ in range(4):
        n_it, p_it = u
        psi = stepper.solve_poisson(n_it, p_it)
        reference = _per_species_systems(stepper, n_it, p_it, psi, n_prev, p_prev, mu)
        A, b = stepper._density_systems(u, psi, prev)
        want = []
        for s, ((A_ref, b_ref), x_it) in enumerate(zip(reference, u)):
            assert np.array_equal(A.block(s).diagonal, A_ref.diagonal)
            assert np.array_equal(A.block(s).offdiagonal, A_ref.offdiagonal)
            assert np.array_equal(b[s], b_ref)
            want.append(la.correct(A_ref, b_ref[None], x_it[None], (held[s],))[0])
        u = stepper.linearized_density_step(u, psi, prev)
        assert all(np.array_equal(g, w) for g, w in zip(u, want))
        reference = _per_species_systems(stepper, *u, psi, n_prev, p_prev, mu)
        residuals = stepper.scheme_residuals(u, psi, prev)
        for r, x, (A_ref, b_ref) in zip(residuals, u, reference):
            assert np.array_equal(r, A_ref @ x - b_ref)


def test_m_matrix_check_names_the_hole_block(monkeypatch):
    real = la.tpfa_operator

    def positive_hole_offdiagonal(mesh, a_fwd, a_bwd, diag, u_dirichlet):
        A, g = real(mesh, a_fwd, a_bwd, diag, u_dirichlet)
        if A.blocks == 2:
            half = len(A.offdiagonal) // 2
            A.offdiagonal[half:] = np.abs(A.offdiagonal[half:])
        return A, g

    monkeypatch.setattr(la, "tpfa_operator", positive_hole_offdiagonal)
    prob = _preset_problem("linear_r0", "zero", nx=4)
    config = StepperConfig(dt=1e-2, check_m_matrices=True)
    stepper = Stepper(prob, config)
    with pytest.raises(InvariantError, match="A_P is not an M-matrix"):
        stepper.advance(stepper.initial_state())


def test_each_picard_iteration_assembles_corrects_and_updates_psi_once(monkeypatch):
    prob = _preset_problem("nonlinear_nondegenerate", "pn", nx=16)
    config = StepperConfig(dt=1e-2, t_end=0.05)
    calls = {"assembly": 0, "correct": 0, "poisson": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Stepper, "_density_systems",
                        counted("assembly", Stepper._density_systems))
    monkeypatch.setattr(Stepper, "solve_poisson",
                        counted("poisson", Stepper.solve_poisson))
    monkeypatch.setattr(la, "correct", counted("correct", la.correct))
    stepper = Stepper(prob, config)
    state = stepper.initial_state()
    iterations = 0
    for _ in range(config.n_steps):
        state, report = stepper.advance(state)
        iterations += report.iterations
    assert iterations > 2 * config.n_steps
    # One assembly per iteration, plus the accepted residual check of each step.
    assert calls == {"assembly": iterations + config.n_steps,
                     "correct": iterations, "poisson": iterations + 1}


@pytest.mark.parametrize("case, doping", [
    ("linear_srh", "pn"), ("nonlinear_nondegenerate", "pn"),
    ("nonlinear_degenerate", "zero")])
def test_stacked_residuals_are_the_block_residuals(case, doping):
    prob = _preset_problem(case, doping, nx=8)
    stepper = Stepper(prob, StepperConfig(dt=1e-2))
    rng = np.random.default_rng(5)
    prev = np.stack(prob.initial_state())
    u = prev * rng.uniform(0.5, 1.5, prev.shape)
    psi = stepper.solve_poisson(u[0], u[1])
    A, b = stepper._density_systems(u, psi, prev)
    residuals = stepper.scheme_residuals(u, psi, prev)
    assert len(residuals) == 2
    for s, r in enumerate(residuals):
        want = A.block(s) @ u[s] - b[s]
        assert np.max(np.abs(want)) > 0.0
        assert np.array_equal(r, want)


def test_iterate_is_the_solve_output(monkeypatch):
    prob = _preset_problem("linear_r0", "zero", nx=4)
    config = StepperConfig(dt=1e-2)
    stepper = Stepper(prob, config)
    real = Stepper.linearized_density_step
    seen = []  # (iterate in, solve out) of each Picard iteration

    class Stop(Exception):
        pass

    def step(self, u, psi, prev):
        if len(seen) == 5:
            raise Stop
        out = real(self, u, psi, prev)
        if len(seen) == 2:
            out = out + 100.0  # the increment grows ten-fold
        seen.append((u, out))
        return out

    monkeypatch.setattr(Stepper, "linearized_density_step", step)
    with pytest.raises(Stop):
        stepper.advance(stepper.initial_state())
    # Every iteration, the one after the bump included, starts from the
    # previous solve's output as it stands.
    for (_, out), (u_next, _) in zip(seen, seen[1:]):
        assert u_next is out
