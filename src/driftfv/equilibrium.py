"""Thermal equilibrium: nonlinear Poisson solve for the zero-current state.

The equilibrium potential solves
    -lambda^2 sum tau DPsi_K,sigma = m(K) (g(alpha_P - Psi_K) - g(alpha_N + Psi_K) + C_K)
with the problem's Dirichlet data, and the equilibrium densities follow as
N = g(alpha_N + Psi), P = g(alpha_P - Psi).  The solver is a damped
(semismooth) Newton method; the clipping kink of g has a one-sided zero
derivative, and the Jacobian stays an M-matrix (stiffness plus nonnegative
diagonal).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import constitutive as cst
from . import sparse as la
from .mesh import DiscreteFunction
from .problem import Problem, State

_MAX_HALVINGS = 30


@dataclass
class EquilibriumState:
    psi: DiscreteFunction
    n: DiscreteFunction
    p: DiscreteFunction
    iterations: int
    residual: float
    residual_history: list = field(default_factory=list)

    def as_state(self) -> State:
        return State(n=self.n.copy(), p=self.p.copy(), psi=self.psi.copy(),
                     step=0, time=0.0)


def solve_equilibrium(problem: Problem, tol: float = 1e-10,
                      max_iter: int = 100) -> EquilibriumState:
    """Solve the equilibrium system to residual inf-norm <= tol."""
    mesh = problem.mesh
    law = problem.law
    lam2 = problem.lambda2
    a_n, a_p = problem.alpha_n, problem.alpha_p
    mk = mesh.cell_measures

    L, g = la.tpfa_system(mesh, 1.0, 1.0, 0.0, problem.psi_dirichlet)
    b_dir = lam2 * g

    def residual(psi):
        gn = cst.g_inverse(law, a_n + psi)
        gp = cst.g_inverse(law, a_p - psi)
        return lam2 * (L @ psi) - b_dir - mk * (gp - gn + problem.doping)

    # Initial guess: linear Poisson with densities frozen at the
    # boundary-data averages.
    n_bar = float(np.mean(problem.n_dirichlet))
    p_bar = float(np.mean(problem.p_dirichlet))
    psi = la.solve(lam2 * L, b_dir + mk * (p_bar - n_bar + problem.doping))

    res = residual(psi)
    history = [float(np.max(np.abs(res)))]
    iterations = 0
    while history[-1] > tol:
        if iterations >= max_iter:
            raise la.SolverError(
                f"equilibrium Newton did not converge in {max_iter} iterations; "
                f"residual history: {['%.3e' % r for r in history[-8:]]}")
        gpn = cst.g_prime(law, a_n + psi)
        gpp = cst.g_prime(law, a_p - psi)
        J = lam2 * L + sp.diags(mk * (gpn + gpp))
        delta = la.solve(J, -res)
        # Halving line search on the residual inf-norm; g's kink makes
        # undamped steps overshoot occasionally.
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = psi + step * delta
            res_trial = residual(trial)
            if np.max(np.abs(res_trial)) < history[-1]:
                break
            step *= 0.5
        psi = psi + step * delta
        res = residual(psi)
        history.append(float(np.max(np.abs(res))))
        iterations += 1

    n_eq = cst.g_inverse(law, a_n + psi)
    p_eq = cst.g_inverse(law, a_p - psi)
    return EquilibriumState(
        psi=DiscreteFunction(psi, problem.psi_dirichlet.copy()),
        n=DiscreteFunction(n_eq, problem.n_dirichlet.copy()),
        p=DiscreteFunction(p_eq, problem.p_dirichlet.copy()),
        iterations=iterations, residual=history[-1],
        residual_history=history)
