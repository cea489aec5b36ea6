"""Backward-Euler time stepping with a penalized decoupled fixed point.

``Stepper.advance`` solves each implicit step by Picard iteration on the
stacked iterate u = [N; P], an array of shape (2, n_cells).  Each iteration
assembles both linear density systems once, with every coefficient frozen at
u (``_density_systems``); takes one inexact solve of both blocks
(``sparse.correct``: a correction on each block's held factor, or a full
solve on a fresh one); and updates the potential from the linear Poisson
system.  Each iterate is that solve's output as it stands.  Both systems
carry the penalty m(K)/dt mu/lambda^2 (u_new - u), mu = dt M for the whole
run: it keeps the decoupled iteration contracting when dt/lambda^2 is large.
The blocks are M-matrices for any mu >= 0, since the m(K)/dt diagonal alone
makes them strictly column dominant.  A step is accepted once the increment
is at most fp_tol and the scheme residual of the converged iterate
(``scheme_residuals``) at most 10 fp_tol, and then checked against the
density bounds m^n, M^n the Stepper tracks.  ``check_m_matrices`` can verify
every assembled block.
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
    fp_max_iter: int | None = None  # None: the Stepper's budget for the problem
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
        if not math.isfinite(self.t_end / self.dt):
            raise HypothesisError(
                f"end time {self.t_end!r} over time step {self.dt!r} gives no "
                f"finite step count")
        if self.t_end > 0.0 and self.n_steps == 0:
            raise HypothesisError(
                f"end time {self.t_end!r} is shorter than the time step {self.dt!r}")
        if not (math.isfinite(self.fp_tol) and self.fp_tol >= 0.0):
            raise HypothesisError(
                f"fixed-point tolerance must be finite and nonnegative, "
                f"got {self.fp_tol!r}")
        if self.fp_max_iter is not None and self.fp_max_iter < 1:
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
        try:
            return self.M * (1.0 - self.rho) ** (-n)
        except OverflowError:  # past the largest float the bound is vacuous
            return math.inf


@dataclass
class StepReport:
    iterations: int
    increment: float
    residual: float
    bound_excess: float = 0.0


class Stepper:
    """Owns the assembled operators, the density bounds, the Picard penalty
    and the Picard budget for one problem/config pair."""

    # Picard iterations per step, by ``problem.experimental``, unless the config
    # sets them: the eight theory-backed presets pass acceptance criterion 03
    # within 200; at 32x32 the degenerate presets take 207 (zero, step 40)
    # and 323 (pn, step 41), at 64x64 247 and 356 (pn, step 43).
    PICARD_BUDGET = {False: 200, True: 2000}

    def __init__(self, problem: Problem, config: StepperConfig):
        config.validate(problem)
        self.problem = problem
        self.config = config
        mesh = problem.mesh
        self.mesh = mesh
        self.law = problem.law
        self.lam2 = problem.lambda2
        self.mk = mesh.cell_measures
        self._mk_dt = self.mk / config.dt
        # The Picard penalty mu/lambda^2, with mu = dt M for the whole run.
        self._mu_l = config.dt * problem.M / problem.lambda2
        self._penalty_diag = self._mk_dt * (1.0 + self._mu_l)
        self.bounds = BoundsTracker(problem, config.dt)
        self.fp_max_iter = config.fp_max_iter or self.PICARD_BUDGET[problem.experimental]

        # CSC: the Poisson residual check multiplies by it once per solve,
        # and scipy's CSC product is cheaper than the operator's.
        shared = la.algebra(mesh)
        self.L = shared.laplacian
        self._poisson_lu = shared.laplacian_lu
        # [cells, Dirichlet tail] of the potential and of N and P: each
        # assembly writes the cell values in front of the fixed tails.
        n = mesh.n_cells
        self._psi_values = np.concatenate([np.zeros(n), problem.psi_dirichlet])
        self._density_values = np.concatenate(
            [np.zeros((2, n)), np.stack([problem.n_dirichlet, problem.p_dirichlet])],
            axis=1)
        self._density_dirichlet = self._density_values[:, n:]
        # Density factors of N and P, kept across Picard iterations and steps.
        self._held = (la.HeldFactor(), la.HeldFactor())

    # -- linear building blocks -------------------------------------------

    def solve_poisson(self, n_cells, p_cells) -> np.ndarray:
        """Potential from the linear Poisson system with given densities."""
        pr = self.problem
        b = pr.poisson_dirichlet + self.mk * (p_cells - n_cells + pr.doping)
        psi = self._poisson_lu.solve(b / self.lam2)
        res = np.abs(self.lam2 * (self.L @ psi) - b).max(initial=0.0)
        if res > 1e-12 * max(1.0, np.abs(b).max(initial=0.0)):
            raise la.SolverError(f"Poisson residual {res:.3e} too large")
        return psi

    def initial_state(self) -> State:
        """State at time zero: initial densities and the matching potential."""
        n0, p0 = self.problem.initial_state()
        return State(n0, p0, self.solve_poisson(n0, p0))

    def _density_systems(self, u, psi_cells, prev):
        """Block operator A and right-hand side b, shape (2, n_cells), of both
        linearized density systems, with every coefficient frozen at the
        stacked iterate u.

        The hole flux is the electron flux with -dPsi and its own dr.  Under
        the isothermal law dr is 1, so the hole coefficients are the electron
        ones swapped (B(-x) and B(x) trade places); under a power law the
        coefficients of both species come from one ``flux_coefficients`` call
        on the stacked potential differences and dr.
        """
        n = self.mesh.n_cells
        first, other = self.mesh.active_cells
        psi_values = self._psi_values
        psi_values[:n] = psi_cells
        dpsi = psi_values[other] - psi_cells[first]
        if self.law.is_isothermal:
            a_fwd, a_bwd = flux_coefficients(dpsi, 1.0)
            # Rows 0-1 are the forward weights of N and P, rows 1-2 their
            # backward weights.
            rows = np.concatenate([a_fwd, a_bwd, a_fwd]).reshape(3, -1)
            a_fwd, a_bwd = rows[:2], rows[1:]
        else:
            values = self._density_values
            values[:, :n] = u
            dr = cst.dr_indexed(self.law, values, first, other)
            a_fwd, a_bwd = flux_coefficients(
                np.concatenate([dpsi, -dpsi]).reshape(2, -1), dr)
        diag = self._penalty_diag
        b = self._mk_dt * (self._mu_l * u + prev)
        recombination = self.problem.recombination
        if not recombination.is_none:
            # The frozen recombination couples each species to the other.
            r0 = self.mk * recombination.r0(u[0], u[1])
            diag = diag + r0 * u[::-1]
            b += r0
        A, g = la.tpfa_operator(self.mesh, a_fwd, a_bwd, diag, self._density_dirichlet)
        b += g.reshape(b.shape)
        return A, b

    def linearized_density_step(self, u, psi_cells, prev) -> np.ndarray:
        """One inexact solve of both linearized density systems at u."""
        A, b = self._density_systems(u, psi_cells, prev)
        if self.config.check_m_matrices:
            for s, name in enumerate(("A_N", "A_P")):
                rep = la.check_m_matrix(A.block(s))
                if not rep.is_m_matrix:
                    raise InvariantError(
                        f"{name} is not an M-matrix: {rep.violations[:3]}")
        return la.correct(A, b, u, self._held)

    # -- nonlinear step ----------------------------------------------------

    def scheme_residuals(self, u, psi_cells, prev):
        """Residuals (of N, of P) of the implicit balance equations at the
        stacked densities u.

        The density systems assembled at u and applied to the same u are the
        implicit balance, so the residual is A u - b; the penalty terms
        cancel there.
        """
        A, b = self._density_systems(u, psi_cells, prev)
        r = (A @ u.ravel()).reshape(b.shape) - b
        return r[0], r[1]

    def advance(self, state: State) -> "tuple[State, StepReport]":
        """One implicit step from ``state``, whose ``psi`` is the Picard
        loop's first potential: ``initial_state`` and every step leave it at
        ``solve_poisson`` of the state's densities."""
        cfg = self.config
        pr = self.problem
        # The iterate starts at the previous state; no step writes into it.
        prev = np.stack([state.n, state.p])
        u = prev
        step_index = state.step + 1
        psi = state.psi
        residual = np.inf
        increments = []
        for iterations in range(1, self.fp_max_iter + 1):
            u_new = self.linearized_density_step(u, psi, prev)
            inc = float(np.abs(u_new - u).max(initial=0.0))
            increments.append(inc)
            u = u_new
            psi = self.solve_poisson(u[0], u[1])
            if inc <= cfg.fp_tol:
                rn, rp = self.scheme_residuals(u, psi, prev)
                residual = float(max(np.max(np.abs(rn), initial=0.0),
                                     np.max(np.abs(rp), initial=0.0)))
                if residual <= 10.0 * cfg.fp_tol:
                    break
        else:
            checked = f"{residual:.3e}" if residual < np.inf else "not checked"
            raise la.SolverError(
                f"fixed point did not converge in {self.fp_max_iter} iterations "
                f"(last increment {inc:.3e}, residual {checked}); "
                f"increment history: {['%.3e' % d for d in increments[-8:]]}")

        lo = self.bounds.lower(step_index) - cfg.fp_tol
        hi = self.bounds.upper(step_index) + cfg.fp_tol
        excess = max(float(lo - u.min()), float(u.max() - hi), 0.0)
        if excess > 0.0:
            msg = (f"density bounds [{lo:.6g}, {hi:.6g}] violated by {excess:.3e} "
                   f"at step {step_index}")
            if pr.doping_inf_norm == 0.0 and pr.m > 0.0:
                raise InvariantError(msg)
            warnings.warn(msg, RuntimeWarning)

        report = StepReport(
            iterations=iterations, increment=inc,
            residual=residual, bound_excess=excess)
        new_state = State(u[0], u[1], psi, step=step_index,
                          time=state.time + cfg.dt)
        return new_state, report


def run(problem: Problem, config: StepperConfig, equilibrium_state: State,
        sink=None, state_sink=None):
    """Execute floor(t_end/dt) steps, emitting one diagnostics record per level.

    ``equilibrium_state`` is the reference of the entropy functionals, built
    into one ``diagnostics.Reference`` for the run; ``sink``, when given, is
    called with each DiagnosticsRecord, and ``state_sink`` with each State
    (including the initial one).  Returns the final state and the list of
    records.  Raises ``InvariantError`` at the first record whose entropy or
    production is not finite: no check of the entropy chain can pass or fail
    on it.
    """
    from . import diagnostics as diag

    # Overflowing terms make a non-finite record, which emit refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        reference = diag.Reference(problem, equilibrium_state)
    stepper = Stepper(problem, config)
    state = stepper.initial_state()

    records = []

    def emit(state, **record_args):
        # An overflowing norm makes a non-finite record, refused just below.
        with np.errstate(over="ignore", invalid="ignore"):
            rec = diag.make_record(reference, state, **record_args)
        if not (math.isfinite(rec.entropy) and math.isfinite(rec.production)):
            raise InvariantError(f"step {rec.step}: non-finite diagnostics, entropy "
                                 f"{rec.entropy:g} and production {rec.production:g}")
        records.append(rec)
        if sink is not None:
            sink(rec)
        if state_sink is not None:
            state_sink(state)

    emit(state, fp_iters=0, prev_record=None)
    for _ in range(config.n_steps):
        try:
            state, report = stepper.advance(state)
        except (la.SolverError, InvariantError) as exc:
            raise type(exc)(f"step {state.step + 1}: {exc}") from exc
        emit(state, fp_iters=report.iterations, prev_record=records[-1], dt=config.dt)
    return state, records
