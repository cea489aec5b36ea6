"""Backward-Euler time stepping with a penalized decoupled fixed point.

Each implicit step is solved by Picard iteration of the map
(N, P) -> (N^, P^): first the potential is obtained from the linear Poisson
system with the current iterate, then two decoupled linear density systems
are solved whose coefficients (edge diffusion means, Bernoulli weights, and
the recombination factor in the isothermal case) are frozen at the iterate.
A penalty mu m(K)/(lambda^2 dt) on the diagonal keeps the systems strictly
diagonally dominant M-matrices, whose solutions are nonnegative and, with
zero doping, inside the data bounds [m, M].

The inner solves are inexact: each species first tries one correction of
its iterate on the LU factor it holds (``sparse.correct``), kept only if the
result is nonnegative and its residual is at most a fifth of the old one or
at rounding level.
Otherwise the species drops its factor and solves its system in full on a
fresh one, which it then holds: a factor too stale for that cut contracts
the residual too slowly to keep pace with the Picard contraction, and
refining on it would only delay the refresh.  So an intermediate iterate
may be a one-step correction rather than the exact solution of an M-matrix
system.  Every assembled matrix can still be checked
(``check_m_matrices``); a step is accepted only when the scheme residual of
the converged iterate is at most 10 fp_tol, and the density bounds are
checked on that converged state.

The iterate is kept stacked, u = [N; P], and both density systems are
assembled in one pass as the two blocks of one matrix-free operator
(``sparse.tpfa_operator``).  The hole flux is the electron flux with -dPsi
and its own dr: under the isothermal law dr is 1 and the hole coefficients
are the electron ones swapped; under a power law one ``flux_coefficients``
call covers the stacked [dPsi; -dPsi] and the per-value dr of both species
(``constitutive.dr_indexed``).  The correction forms one stacked residual
and one triangular solve per species, and each species keeps its own
held factor, acceptance test and fallback to a full solve.  Only ``A @ x``
is needed, so a CSC matrix is laid out only for a full solve or for
``check_m_matrices``, block by block.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from . import sparse as la
from .flux import flux_coefficients
from .problem import HypothesisError, Problem, State


class InvariantError(RuntimeError):
    """A guaranteed discrete bound was violated beyond tolerance."""


@dataclass
class StepperConfig:
    dt: float = 1e-2
    t_end: float = 10.0
    fp_tol: float = 1e-10
    fp_max_iter: int = 200
    check_m_matrices: bool = False

    @property
    def n_steps(self) -> int:
        """Number of steps to t_end: floor(t_end/dt), forgiving rounding."""
        return int(math.floor(self.t_end / self.dt + 1e-9))

    def validate(self, problem: Problem) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise HypothesisError(f"time step must be finite and positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise HypothesisError(
                f"end time must be finite and nonnegative, got {self.t_end!r}")
        if self.t_end > 0.0 and self.n_steps == 0:
            raise HypothesisError(
                f"end time {self.t_end!r} is shorter than the time step {self.dt!r}")
        if not (math.isfinite(self.fp_tol) and self.fp_tol >= 0.0):
            raise HypothesisError(
                f"fixed-point tolerance must be finite and nonnegative, "
                f"got {self.fp_tol!r}")
        if self.fp_max_iter < 1:
            raise HypothesisError(f"fixed-point iteration limit must be >= 1, "
                                  f"got {self.fp_max_iter!r}")
        # The upper density bound M (1 - dt ||C||/lambda^2)^{-n} needs
        # dt < lambda^2/||C||_inf; it is infinite at equality.
        cinf = problem.doping_inf_norm
        if cinf > 0.0 and not self.dt * cinf / problem.lambda2 < 1.0:
            raise HypothesisError(
                f"time step {self.dt:g} must be below lambda^2/||C||_inf = "
                f"{problem.lambda2 / cinf:g} with nonzero doping")


class BoundsTracker:
    """Density bound sequences m^n, M^n.

    m^n = m (1 + dt ||C||/lambda^2)^{-n}, M^n = M (1 - dt ||C||/lambda^2)^{-n};
    both reduce to the constants m, M when the doping vanishes.
    """

    def __init__(self, problem: Problem, dt: float):
        self.m = problem.m
        self.M = problem.M
        self.rho = dt * problem.doping_inf_norm / problem.lambda2

    def lower(self, n: int) -> float:
        return self.m * (1.0 + self.rho) ** (-n)

    def upper(self, n: int) -> float:
        return self.M * (1.0 - self.rho) ** (-n)


@dataclass
class StepReport:
    iterations: int
    increment: float
    residual: float
    damping: float
    bound_excess: float = 0.0


def _correct_or_solve(A, b, u_it, helds) -> np.ndarray:
    """Each block's safeguarded correction of u_it on its held factor, else
    a full solve of that block on a fresh factor (a refused correction drops
    the held one); stacked like u_it."""
    kept = la.correct(A, b, u_it, helds) or [None] * len(helds)
    m = len(u_it) // len(helds)
    return np.concatenate([
        la.solve(A.block(s), b[s * m:(s + 1) * m], held) if x is None else x
        for s, (held, x) in enumerate(zip(helds, kept))])


class Stepper:
    """Owns the assembled operators for one problem/config pair."""

    def __init__(self, problem: Problem, config: StepperConfig):
        config.validate(problem)
        self.problem = problem
        self.config = config
        mesh = problem.mesh
        self.mesh = mesh
        self.law = problem.law
        self.lam2 = problem.lambda2
        self.mk = mesh.cell_measures

        # CSC: the Poisson residual check multiplies by it once per solve,
        # and scipy's CSC product is cheaper than the operator's.
        self.L = mesh.laplacian
        _, g = la.tpfa_operator(mesh, 1.0, 1.0, 0.0, problem.psi_dirichlet)
        self._poisson_lu = mesh.laplacian_lu
        self._poisson_b_dir = self.lam2 * g
        self._density_dirichlet = np.stack([problem.n_dirichlet, problem.p_dirichlet])
        # Density factors of N and P, kept across Picard iterations and steps.
        self._held = (la.HeldFactor(), la.HeldFactor())

    # -- linear building blocks -------------------------------------------

    def solve_poisson(self, n_cells, p_cells) -> np.ndarray:
        """Potential from the linear Poisson system with given densities."""
        b = self._poisson_b_dir + self.mk * (p_cells - n_cells + self.problem.doping)
        psi = self._poisson_lu.solve(b / self.lam2)
        res = np.max(np.abs(self.lam2 * (self.L @ psi) - b), initial=0.0)
        if res > 1e-12 * max(1.0, np.max(np.abs(b), initial=0.0)):
            raise la.SolverError(f"Poisson residual {res:.3e} too large")
        return psi

    def initial_state(self) -> State:
        """State at time zero: initial densities and the matching potential."""
        n0, p0 = self.problem.initial_state()
        return State(n0, p0, self.solve_poisson(n0, p0))

    def _density_systems(self, u_it, psi_cells, prev, mu):
        """Block operator A and right-hand side b of both linearized density
        systems, stacked [N; P] like the iterate u_it and every coefficient
        frozen at it.

        The hole flux is the electron flux with -dPsi and its own dr.  Under
        the isothermal law dr is 1, so the hole coefficients are the electron
        ones swapped (B(-x) and B(x) trade places); under a power law the
        coefficients of both species come from one ``flux_coefficients`` call
        on the stacked potential differences and dr.
        """
        mesh, pr = self.mesh, self.problem
        n = mesh.n_cells
        first, other = mesh.active_cells
        psi_values = np.concatenate([psi_cells, pr.psi_dirichlet])
        dpsi = psi_values[other] - psi_cells[first]
        if self.law.is_isothermal:
            a_fwd, a_bwd = flux_coefficients(dpsi, 1.0)
            # Rows 0-1 are the forward weights of N and P, rows 1-2 their
            # backward weights.
            rows = np.concatenate([a_fwd, a_bwd, a_fwd]).reshape(3, -1)
            a_fwd, a_bwd = rows[:2], rows[1:]
        else:
            values = np.concatenate([u_it[:n], pr.n_dirichlet, u_it[n:], pr.p_dirichlet])
            dr = cst.dr_indexed(self.law, values.reshape(2, -1), first, other)
            a_fwd, a_bwd = flux_coefficients(
                np.concatenate([dpsi, -dpsi]).reshape(2, -1), dr)
        mk_dt = self.mk / self.config.dt
        diag = mk_dt * (1.0 + mu / self.lam2)
        b = mk_dt * (mu / self.lam2 * u_it.reshape(2, n) + prev.reshape(2, n))
        if not pr.recombination.is_none:
            # The frozen recombination couples each species to the other.
            r0 = self.mk * pr.recombination.r0(u_it[:n], u_it[n:])
            diag = diag + r0 * u_it.reshape(2, n)[::-1]
            b += r0
        A, g = la.tpfa_operator(mesh, a_fwd, a_bwd, diag, self._density_dirichlet)
        return A, b.ravel() + g

    def linearized_density_step(self, n_it, p_it, psi_cells, n_prev, p_prev, mu):
        """One application of the decoupled linear density solves."""
        u_it = np.concatenate([n_it, p_it])
        A, b = self._density_systems(u_it, psi_cells, np.concatenate([n_prev, p_prev]), mu)
        if self.config.check_m_matrices:
            for s, name in enumerate(("A_N", "A_P")):
                rep = la.check_m_matrix(A.block(s))
                if not rep.is_m_matrix:
                    raise InvariantError(
                        f"{name} is not an M-matrix: {rep.violations[:3]}")
        u = _correct_or_solve(A, b, u_it, self._held)
        n = self.mesh.n_cells
        return u[:n], u[n:]

    # -- nonlinear step ----------------------------------------------------

    def scheme_residuals(self, n_new, p_new, psi_cells, n_prev, p_prev):
        """Residuals of the implicit balance equations at given values.

        The density systems assembled at x = (n_new, p_new) and applied to
        the same x are the implicit balance, so the residual is A x - b; the
        penalty terms cancel there, and mu = 0 leaves them out altogether.
        """
        u = np.concatenate([n_new, p_new])
        A, b = self._density_systems(u, psi_cells, np.concatenate([n_prev, p_prev]), 0.0)
        r = A @ u - b
        n = self.mesh.n_cells
        return r[:n], r[n:]

    def advance(self, state: State, tracker: BoundsTracker) -> "tuple[State, StepReport]":
        """One implicit step from ``state``, whose ``psi`` is the Picard
        loop's first potential: ``initial_state`` and every step leave it at
        ``solve_poisson`` of the state's densities."""
        cfg = self.config
        pr = self.problem
        n = self.mesh.n_cells
        # The iterate, stacked [N; P]; n_prev and p_prev are views of prev.
        prev = np.concatenate([state.n, state.p])
        n_prev, p_prev = prev[:n], prev[n:]
        u = prev.copy()
        step_index = state.step + 1

        upper_next = tracker.upper(step_index)
        mu = cfg.dt * max(upper_next, float(np.max(u, initial=0.0)))

        omega = 1.0
        best_inc = np.inf
        inc = np.inf
        calm_streak = 0
        psi = state.psi
        iterations = 0
        residual = np.inf
        increments = []
        for iterations in range(1, cfg.fp_max_iter + 1):
            u_hat = np.concatenate(self.linearized_density_step(
                u[:n], u[n:], psi, n_prev, p_prev, mu))
            u_new = omega * u_hat + (1.0 - omega) * u
            inc = float(np.max(np.abs(u_new - u), initial=0.0))
            increments.append(inc)
            # Damp only on significant growth (10x over the best increment so
            # far): the increment of a convergent iteration need not be
            # monotone, e.g. when the largest component moves between cells,
            # and halving on every raw bump stalls the contraction for good.
            if inc > 10.0 * best_inc:
                omega = max(omega / 2.0, 0.125)
                calm_streak = 0
            else:
                calm_streak += 1
                if calm_streak >= 5 and omega < 1.0:
                    omega = min(1.0, 2.0 * omega)
                    calm_streak = 0
            best_inc = min(best_inc, inc)
            u = u_new
            psi = self.solve_poisson(u[:n], u[n:])
            if inc <= cfg.fp_tol:
                rn, rp = self.scheme_residuals(u[:n], u[n:], psi, n_prev, p_prev)
                residual = float(max(np.max(np.abs(rn), initial=0.0),
                                     np.max(np.abs(rp), initial=0.0)))
                if residual <= 10.0 * cfg.fp_tol:
                    break
        else:
            raise la.SolverError(
                f"fixed point did not converge in {cfg.fp_max_iter} iterations "
                f"(last increment {inc:.3e}, residual {residual:.3e}); "
                f"increment history: {['%.3e' % d for d in increments[-8:]]}")

        lo = tracker.lower(step_index) - cfg.fp_tol
        hi = tracker.upper(step_index) + cfg.fp_tol
        excess = max(float(lo - u.min()), float(u.max() - hi), 0.0)
        if excess > 0.0:
            msg = (f"density bounds [{lo:.6g}, {hi:.6g}] violated by {excess:.3e} "
                   f"at step {step_index}")
            if pr.doping_inf_norm == 0.0 and pr.m > 0.0:
                raise InvariantError(msg)
            warnings.warn(msg, RuntimeWarning)

        report = StepReport(
            iterations=iterations, increment=inc,
            residual=residual, damping=omega, bound_excess=excess)
        new_state = State(u[:n], u[n:], psi, step=step_index,
                          time=state.time + cfg.dt)
        return new_state, report


def run(problem: Problem, config: StepperConfig, equilibrium_state: State,
        sink=None, state_sink=None):
    """Execute floor(t_end/dt) steps, emitting one diagnostics record per level.

    ``equilibrium_state`` provides the reference for the entropy functionals;
    ``sink``, when given, is called with each DiagnosticsRecord, and
    ``state_sink`` with each State (including the initial one).  Returns the
    final state and the list of records.
    """
    from . import diagnostics as diag

    eq = equilibrium_state
    stepper = Stepper(problem, config)
    tracker = BoundsTracker(problem, config.dt)
    state = stepper.initial_state()

    records = []

    def emit(rec):
        records.append(rec)
        if sink is not None:
            sink(rec)

    emit(diag.make_record(state, eq, problem, fp_iters=0, prev_record=None))
    if state_sink is not None:
        state_sink(state)
    for _ in range(config.n_steps):
        try:
            state, report = stepper.advance(state, tracker)
        except (la.SolverError, InvariantError) as exc:
            raise type(exc)(f"step {state.step + 1}: {exc}") from exc
        emit(diag.make_record(state, eq, problem,
                              fp_iters=report.iterations, prev_record=records[-1],
                              dt=config.dt))
        if state_sink is not None:
            state_sink(state)
    return state, records
