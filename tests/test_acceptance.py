"""Acceptance suite: the quantitative claims the solver must reproduce.

Each test prints one PASS/FAIL line on the real stdout so the verdicts stay
visible under pytest's capture.  The long 32x32 preset runs are executed once
per session and shared across the entropy, decay, bound, and degenerate-case
criteria.
"""
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize

from driftfv.constitutive import (PressureLaw, dr_mean, enthalpy, g_inverse,
                                  pressure_prime)
from driftfv.diagnostics import (check_entropy_chain, entropy_slack_tolerance,
                                 fit_decay_rate)
from driftfv.equilibrium import solve_equilibrium
from driftfv.flux import bernoulli, lemma1_residual
from driftfv.mesh import build_cartesian
from driftfv.problem import discretize_data, pn_junction_preset
from driftfv.transient import BoundsTracker, Stepper, StepperConfig, run

FP_TOL = 1e-10
DT = 1e-2
T_END = 10.0
NX = 32

HYPOTHESIS_PRESETS = [
    ("linear_r0", "zero"), ("linear_r0", "pn"),
    ("linear_srh", "zero"), ("linear_srh", "pn"),
    ("linear_auger", "zero"), ("linear_auger", "pn"),
    ("nonlinear_nondegenerate", "zero"), ("nonlinear_nondegenerate", "pn"),
]
DEGENERATE_PRESETS = [("nonlinear_degenerate", "zero"),
                      ("nonlinear_degenerate", "pn")]


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_passthrough(capfd):
    # Verdict lines must reach the real stdout even under pytest's
    # file-descriptor capture (e.g. when the run is piped to a log).
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(num, label, ok):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    return ok


def _full_run(case, doping, check_m=False, fp_max_iter=200):
    preset = pn_junction_preset(case, doping)
    mesh = build_cartesian(NX, NX, dirichlet_predicate=preset.dirichlet_predicate)
    problem = preset.build(mesh)
    eq = solve_equilibrium(problem)
    config = StepperConfig(dt=DT, t_end=T_END, fp_tol=FP_TOL,
                           check_m_matrices=check_m, fp_max_iter=fp_max_iter)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state, records = run(problem, config, eq)
    return {"problem": problem, "eq": eq, "records": records, "state": state,
            "config": config}


@pytest.fixture(scope="session")
def preset_runs():
    out = {}
    for case, doping in HYPOTHESIS_PRESETS:
        out[f"{case}_{doping}"] = _full_run(case, doping, check_m=True)
    return out


@pytest.fixture(scope="session")
def degenerate_runs():
    # The degenerate runs drive densities to machine zero at the empty
    # contacts, which slows the fixed-point contraction; give them a larger
    # iteration budget than the theory-backed presets need.
    return {f"{case}_{doping}": _full_run(case, doping, fp_max_iter=2000)
            for case, doping in DEGENERATE_PRESETS}


def test_criterion_01_lemma1_flux_inequality():
    rng = np.random.default_rng(2024)
    n = 1_000_000
    laws = [PressureLaw.isothermal()] + [
        PressureLaw.power(a) for a in (1.5, 5.0 / 3.0, 2.0, 3.0)]
    ok = True
    for law in laws:
        tau = rng.uniform(1e-6, 10.0, n)
        n_k = rng.uniform(1e-6, 10.0, n)
        n_s = rng.uniform(1e-6, 10.0, n)
        dpsi = rng.uniform(-20.0, 20.0, n)
        dr = dr_mean(law, n_k, n_s)
        h_k = enthalpy(law, n_k)
        h_s = enthalpy(law, n_s)
        res = lemma1_residual(tau, n_k, n_s, dpsi, dr, h_k, h_s)
        w = (h_s - h_k) - dpsi
        scale = tau * np.maximum(n_k, n_s) * (1.0 + w ** 2)
        ok = ok and bool(np.all(res <= 1e-12 * scale))
    assert _verdict(1, "flux inequality over 10^6 samples per law", ok)


def test_criterion_02_bernoulli_identities():
    x = np.linspace(-700.0, 700.0, 100_000)
    res = bernoulli(-x) - bernoulli(x) - x
    ok = bool(np.max(np.abs(res) / np.maximum(1.0, np.abs(x))) <= 1e-13)
    wide = np.concatenate([x, np.geomspace(1e-320, 700.0, 1000),
                           -np.geomspace(1e-320, 700.0, 1000), [0.0]])
    b = bernoulli(wide)
    ok = ok and bool(np.all(np.isfinite(b)) and np.all(b >= 0.0))
    ok = ok and bernoulli(0.0) == 1.0
    assert _verdict(2, "Bernoulli identity and stability", ok)


def test_criterion_03_per_step_entropy_inequality(preset_runs):
    ok = True
    for name, data in preset_runs.items():
        violations = check_entropy_chain(data["records"], FP_TOL)
        iters = [r.fp_iters for r in data["records"][1:]]
        ok = ok and not violations and np.median(iters) <= 30
    assert _verdict(3, "per-step entropy inequality on 8 presets", ok)


def test_criterion_04_exponential_decay(preset_runs):
    ok = True
    for name, data in preset_runs.items():
        records = data["records"]
        e0 = records[0].entropy
        fit = fit_decay_rate(records, floor=1e-10 * e0)
        ok = ok and fit.rate > 0.0 and fit.r_squared >= 0.99
        # Half-rate monotonicity on the resolved window, with fp slack.
        eps = entropy_slack_tolerance(FP_TOL, e0)
        window = [(r.t, r.entropy) for r in records if r.entropy > 1e-10 * e0]
        seq = np.array([np.exp(0.5 * fit.rate * t) * e for t, e in window])
        slack = np.array([np.exp(0.5 * fit.rate * t) * eps for t, _ in window])
        ok = ok and bool(np.all(np.diff(seq) <= slack[1:]))
    assert _verdict(4, "exponential entropy decay fit (R^2 >= 0.99)", ok)


def test_criterion_05_l2_decay_linear_c0(preset_runs):
    ok = True
    for name in ("linear_r0_zero", "linear_srh_zero", "linear_auger_zero"):
        records = preset_runs[name]["records"]
        first, last = records[0], records[-1]
        v0 = first.l2_n ** 2 + first.l2_p ** 2 + first.l2_psi ** 2
        vT = last.l2_n ** 2 + last.l2_p ** 2 + last.l2_psi ** 2
        ok = ok and vT <= 1e-6 * v0
    assert _verdict(5, "L2 distance at T=10 below 1e-6 of initial", ok)


def test_criterion_06_maximum_principle(preset_runs):
    data = preset_runs["nonlinear_nondegenerate_zero"]
    ok = all(r.min_n >= 0.1 - 1e-9 and r.max_n <= 0.9 + 1e-9
             and r.min_p >= 0.1 - 1e-9 and r.max_p <= 0.9 + 1e-9
             for r in data["records"])
    doped = preset_runs["nonlinear_nondegenerate_pn"]
    tracker = BoundsTracker(doped["problem"], DT)
    for r in doped["records"]:
        lo = tracker.lower(r.step) - 1e-9
        hi = tracker.upper(r.step) + 1e-9
        ok = ok and min(r.min_n, r.min_p) >= lo and max(r.max_n, r.max_p) <= hi
    assert _verdict(6, "maximum principle (C=0 exact, C!=0 tracked bounds)", ok)


def test_criterion_07_equilibrium_preservation():
    ok = True
    for case, doping in HYPOTHESIS_PRESETS:
        preset = pn_junction_preset(case, doping)
        mesh = build_cartesian(16, 16,
                               dirichlet_predicate=preset.dirichlet_predicate)
        problem = preset.build(mesh)
        eq = solve_equilibrium(problem)
        config = StepperConfig(dt=DT, fp_tol=FP_TOL)
        stepper = Stepper(problem, config)
        tracker = BoundsTracker(problem, DT)
        state = eq.as_state()
        drift = 0.0
        for _ in range(100):
            state, _ = stepper.advance(state, tracker)
            drift = max(drift,
                        float(np.max(np.abs(state.n.cell_values - eq.n.cell_values))),
                        float(np.max(np.abs(state.p.cell_values - eq.p.cell_values))))
        ok = ok and drift <= 1e-8
    assert _verdict(7, "equilibrium preserved over 100 steps", ok)


def test_criterion_08_m_matrix_structure(preset_runs):
    # The criterion-3 runs execute with check_m_matrices=True: every A_N and
    # A_P of every fixed-point iteration is verified during assembly, and any
    # violation aborts the run.  Completion is the assertion.
    ok = all(data["config"].check_m_matrices and data["state"].step == 1000
             for data in preset_runs.values())
    assert _verdict(8, "M-matrix structure at every fixed-point iteration", ok)


# -- criterion 9: dense oracle for one implicit step ------------------------

def _oracle_bernoulli(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-9
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x / 2.0, safe / np.expm1(safe))


def _oracle_dr(law, a, b):
    if law.is_isothermal:
        return 1.0
    if a <= 0.0 or b <= 0.0 or abs(np.log(max(b, 1e-300)) - np.log(max(a, 1e-300))) < 1e-10:
        return float(pressure_prime(law, 0.5 * (a + b)))
    al = law.alpha
    h = lambda s: (al / (al - 1.0)) * (s ** (al - 1.0) - 1.0)
    return (h(b) - h(a)) / (np.log(b) - np.log(a))


def _oracle_residual(z, problem, n_prev, p_prev, dt):
    """Residuals of the fully coupled implicit system (independent assembly)."""
    mesh = problem.mesh
    theta = mesh.n_cells
    n, p, psi = z[:theta], z[theta:2 * theta], z[2 * theta:]
    law = problem.law
    res_n = mesh.cell_measures * (n - n_prev) / dt
    res_p = mesh.cell_measures * (p - p_prev) / dt
    res_psi = np.zeros(theta)
    for e in range(mesh.n_edges):
        kind = mesh.edge_kind[e]
        k = mesh.edge_cells[e, 0]
        tau = mesh.edge_tau[e]
        if kind == 2:  # Neumann: no flux
            continue
        if kind == 0:
            ell = mesh.edge_cells[e, 1]
            n_s, p_s, psi_s = n[ell], p[ell], psi[ell]
        else:
            j = mesh.dirichlet_index[e]
            n_s = problem.n_dirichlet[j]
            p_s = problem.p_dirichlet[j]
            psi_s = problem.psi_dirichlet[j]
        dpsi = psi_s - psi[k]
        drn = _oracle_dr(law, n[k], n_s)
        drp = _oracle_dr(law, p[k], p_s)
        f = tau * drn * (_oracle_bernoulli(-dpsi / drn) * n[k]
                         - _oracle_bernoulli(dpsi / drn) * n_s)
        g = tau * drp * (_oracle_bernoulli(dpsi / drp) * p[k]
                         - _oracle_bernoulli(-dpsi / drp) * p_s)
        res_n[k] += f
        res_p[k] += g
        res_psi[k] += -problem.lambda2 * tau * dpsi
        if kind == 0:
            res_n[ell] -= f
            res_p[ell] -= g
            res_psi[ell] += problem.lambda2 * tau * dpsi
    r0 = problem.recombination.r0(n, p)
    res_n += mesh.cell_measures * r0 * (n * p - 1.0)
    res_p += mesh.cell_measures * r0 * (n * p - 1.0)
    res_psi -= mesh.cell_measures * (p - n + problem.doping)
    return np.concatenate([res_n, res_p, res_psi])


def _tiny_problem(nx, ny, law, recomb_kind):
    from driftfv.problem import NO_RECOMBINATION, RecombinationModel
    if law.is_isothermal:
        n_d, p_d = 2.0, 0.5
    else:
        n_d, p_d = 0.8, 0.3
    psi_d = 0.5 * (float(enthalpy(law, n_d)) - float(enthalpy(law, p_d)))
    recomb = (NO_RECOMBINATION if recomb_kind == "none"
              else RecombinationModel(recomb_kind))
    mesh = build_cartesian(nx, ny, dirichlet_predicate=lambda x, y: y < 1e-12)
    return discretize_data(
        mesh, law, 1.0, lambda x, y: 0.5,
        lambda x, y: 1.0 + 0.3 * x, lambda x, y: 0.7 + 0.2 * y,
        lambda x, y: n_d, lambda x, y: p_d, lambda x, y: psi_d, recomb)


TINY_CASES = [(PressureLaw.isothermal(), "none"),
              (PressureLaw.isothermal(), "srh"),
              (PressureLaw.isothermal(), "auger"),
              (PressureLaw.power(5.0 / 3.0), "none")]


def test_criterion_09_tiny_instance_oracle():
    dt = 0.05
    ok = True
    for nx, ny in ((2, 1), (2, 2)):
        for law, recomb in TINY_CASES:
            problem = _tiny_problem(nx, ny, law, recomb)
            config = StepperConfig(dt=dt, fp_tol=1e-13)
            stepper = Stepper(problem, config)
            tracker = BoundsTracker(problem, dt)
            psi0 = stepper.solve_poisson(problem.n_initial, problem.p_initial)
            from driftfv.problem import make_state
            state0 = make_state(problem, problem.n_initial, problem.p_initial, psi0)
            state, _ = stepper.advance(state0, tracker)

            z0 = np.concatenate([problem.n_initial, problem.p_initial, psi0])
            sol = scipy.optimize.root(
                _oracle_residual, z0,
                args=(problem, problem.n_initial, problem.p_initial, dt),
                method="hybr", tol=1e-13)
            theta = problem.mesh.n_cells
            diff = max(
                np.max(np.abs(state.n.cell_values - sol.x[:theta])),
                np.max(np.abs(state.p.cell_values - sol.x[theta:2 * theta])),
                np.max(np.abs(state.psi.cell_values - sol.x[2 * theta:])))
            ok = ok and sol.success and diff <= 1e-8
    assert _verdict(9, "tiny-instance dense oracle agreement (1e-8)", ok)


def test_scheme_residuals_match_oracle_away_from_convergence():
    # Stepper.scheme_residuals comes from the assembled density systems; the
    # oracle sums the fluxes edge by edge.  Random inputs are far from any
    # solution of the step, so the residuals are checked where they are large.
    rng = np.random.default_rng(31)
    dt = 0.05
    for law, recomb in TINY_CASES:
        problem = _tiny_problem(2, 2, law, recomb)
        stepper = Stepper(problem, StepperConfig(dt=dt))
        theta = problem.mesh.n_cells
        for _ in range(5):
            n, p, n_prev, p_prev = rng.uniform(0.2, 3.0, (4, theta))
            psi = rng.uniform(-2.0, 2.0, theta)
            rn, rp = stepper.scheme_residuals(n, p, psi, n_prev, p_prev)
            oracle = _oracle_residual(np.concatenate([n, p, psi]), problem,
                                      n_prev, p_prev, dt)
            got = np.concatenate([rn, rp])
            want = oracle[:2 * theta]
            assert np.max(np.abs(want)) > 1e-2
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_criterion_10_equilibrium_solver():
    ok = True
    for case, doping in HYPOTHESIS_PRESETS:
        preset = pn_junction_preset(case, doping)
        mesh = build_cartesian(NX, NX,
                               dirichlet_predicate=preset.dirichlet_predicate)
        problem = preset.build(mesh)
        eq = solve_equilibrium(problem)
        ok = ok and eq.residual <= 1e-10
        if case == "linear_r0" and doping == "zero":
            product = eq.n.cell_values * eq.p.cell_values
            ok = ok and bool(np.max(np.abs(product - 1.0)) <= 1e-10)
    assert _verdict(10, "equilibrium residual and mass action", ok)


def test_criterion_11_constitutive_round_trips():
    rng = np.random.default_rng(7)
    s = np.geomspace(1e-6, 1e6, 100_000)
    ok = True
    for law in (PressureLaw.isothermal(), PressureLaw.power(5.0 / 3.0),
                PressureLaw.power(2.0)):
        back = g_inverse(law, enthalpy(law, s))
        ok = ok and bool(np.all(np.abs(back - s) <= 1e-10 * s))
        a = rng.uniform(1e-3, 10.0, 100_000)
        b = rng.uniform(1e-3, 10.0, 100_000)
        d_ab = dr_mean(law, a, b)
        d_ba = dr_mean(law, b, a)
        scale = np.maximum(1.0, np.abs(d_ab))
        ok = ok and bool(np.all(np.abs(d_ab - d_ba) <= 1e-12 * scale))
        diag = dr_mean(law, a, a)
        ok = ok and bool(np.all(np.abs(diag - pressure_prime(law, a))
                                <= 1e-12 * np.maximum(1.0, diag)))
    assert _verdict(11, "constitutive round-trips and dr symmetry", ok)


def test_criterion_12_degenerate_case(degenerate_runs):
    ok = True
    for name, data in degenerate_runs.items():
        records = data["records"]
        es = np.array([r.entropy for r in records])
        ok = ok and bool(np.all(np.isfinite(es)))
        ok = ok and np.all(np.isfinite([r.min_n for r in records]))
        eps = entropy_slack_tolerance(FP_TOL, records[0].entropy)
        ok = ok and bool(np.all(np.diff(es) <= eps))
        ok = ok and data["problem"].experimental
    assert _verdict(12, "degenerate case runs clean and is flagged", ok)
