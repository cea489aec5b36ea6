"""Thermal equilibrium: nonlinear Poisson solve for the zero-current state.

The equilibrium potential solves
    -lambda^2 sum tau DPsi_K,sigma = m(K) (g(alpha_P - Psi_K) - g(alpha_N + Psi_K) + C_K)
with the problem's Dirichlet data, and the equilibrium densities follow as
N = g(alpha_N + Psi), P = g(alpha_P - Psi).  The solver is a damped
(semismooth) Newton method; the clipping kink of g has a one-sided zero
derivative, and the Jacobian stays an M-matrix (stiffness plus nonnegative
diagonal).  Each Jacobian is a two-point operator (``sparse.tpfa_operator``);
successive ones differ only in the diagonal and share one held LU factor
(``sparse.solve``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from . import sparse as la
from .problem import HypothesisError, Problem, State

_MAX_HALVINGS = 30


@dataclass(kw_only=True)
class EquilibriumState(State):
    """The equilibrium as a time-zero state, with the Newton solve's record."""
    iterations: int
    residual_history: list

    @property
    def residual(self) -> float:
        """The final residual inf-norm."""
        return self.residual_history[-1]


def solve_equilibrium(problem: Problem, tol: float = 1e-10,
                      max_iter: int = 100) -> EquilibriumState:
    """Solve the equilibrium system to residual inf-norm <= tol."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise HypothesisError(
            f"equilibrium tolerance must be finite and nonnegative, got {tol!r}")
    if max_iter < 1:
        raise HypothesisError(
            f"equilibrium iteration limit must be >= 1, got {max_iter!r}")
    mesh = problem.mesh
    law = problem.law
    lam2 = problem.lambda2
    a_n, a_p = problem.alpha_n, problem.alpha_p
    mk = mesh.cell_measures

    shared = la.algebra(mesh)
    L = shared.laplacian
    b_dir = problem.poisson_dirichlet

    def residual(psi):
        gn = cst.g_inverse(law, a_n + psi)
        gp = cst.g_inverse(law, a_p - psi)
        return lam2 * (L @ psi) - b_dir - mk * (gp - gn + problem.doping)

    # Initial guess: the contacts' potential alone, extended harmonically
    # (no space charge), so it stays within the Dirichlet data's range.
    psi = shared.laplacian_lu.solve(b_dir / lam2)

    res = residual(psi)
    history = [float(np.max(np.abs(res)))]
    iterations = 0
    held = la.HeldFactor()
    while history[-1] > tol:
        if iterations >= max_iter:
            raise la.SolverError(
                f"equilibrium Newton did not converge in {max_iter} iterations; "
                f"residual history: {['%.3e' % r for r in history[-8:]]}")
        gpn = cst.g_prime(law, a_n + psi)
        gpp = cst.g_prime(law, a_p - psi)
        J, _ = la.tpfa_operator(mesh, lam2, lam2, mk * (gpn + gpp),
                                problem.psi_dirichlet)
        delta = la.solve(J, -res, held)
        # Halving line search on the residual inf-norm; g's kink makes
        # undamped steps overshoot occasionally.
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = psi + step * delta
            res_trial = residual(trial)
            if np.max(np.abs(res_trial)) < history[-1]:
                break
            step *= 0.5
        psi, res = trial, res_trial
        history.append(float(np.max(np.abs(res))))
        iterations += 1

    return EquilibriumState(
        n=cst.g_inverse(law, a_n + psi), p=cst.g_inverse(law, a_p - psi),
        psi=psi, iterations=iterations, residual_history=history)
