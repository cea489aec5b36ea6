"""Discrete entropy, dissipation, and decay-rate diagnostics.

The relative entropy of a state (N, P, Psi) with respect to the equilibrium
(N^eq, P^eq, Psi^eq) is

    E = sum_K m(K) [H(N)-H(N^eq)-h(N^eq)(N-N^eq) + (same for P)]
        + lambda^2/2 |Psi - Psi^eq|^2_{1,M}

and the associated dissipation is

    I = sum_edges tau [min(N_K, N_Ks) (D(h(N)-Psi))^2
                       + min(P_K, P_Ks) (D(h(P)+Psi))^2]
        + sum_K m(K) R(N,P) [h(N)+h(P)-h(N^eq)-h(P^eq)].

The implicit scheme satisfies E^{n+1} + dt I^{n+1} <= E^n up to the fixed
point tolerance, and E decays exponentially to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constitutive as cst
from .mesh import DiscreteFunction, norm_l2, seminorm_h1
from .problem import Problem, State, evaluate_recombination

# Densities are clamped to this value before taking logarithms; edge terms
# multiplied by a vanishing minimum density are exactly zero regardless.
_LOG_CLAMP = 1e-300


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    entropy: float        # E^n
    production: float     # I^n (0 at n = 0)
    f_functional: float   # F^n
    l2_n: float           # ||N - N^eq||_0
    l2_p: float
    l2_psi: float         # ||Psi - Psi^eq||_0
    min_n: float
    max_n: float
    min_p: float
    max_p: float
    fp_iters: int
    slack: float          # E^{n-1} - E^n - dt I^n (0 at n = 0)


def _diff_function(a: DiscreteFunction, b: DiscreteFunction) -> DiscreteFunction:
    return DiscreteFunction(a.cell_values - b.cell_values,
                            a.dirichlet_values - b.dirichlet_values)


def _entropy_density(law, s, s_eq):
    return (cst.big_h(law, s) - cst.big_h(law, s_eq)
            - cst.enthalpy(law, np.maximum(s_eq, _LOG_CLAMP)) * (s - s_eq))


def entropy(problem: Problem, state: State, eq: State) -> float:
    """Relative entropy E of the state with respect to the equilibrium."""
    law = problem.law
    mk = problem.mesh.cell_measures
    cells = (np.sum(mk * _entropy_density(law, state.n.cell_values, eq.n.cell_values))
             + np.sum(mk * _entropy_density(law, state.p.cell_values, eq.p.cell_values)))
    dpsi = seminorm_h1(problem.mesh, _diff_function(state.psi, eq.psi))
    return float(cells + 0.5 * problem.lambda2 * dpsi ** 2)


def _edge_dissipation(problem: Problem, dens: DiscreteFunction,
                      psi: DiscreteFunction, sign: float) -> float:
    mesh = problem.mesh
    u_k = dens.cell_values[mesh.edge_cells[:, 0]]
    u_s = mesh.edge_other_values(dens.cell_values, dens.dirichlet_values)
    h_k = cst.enthalpy(problem.law, np.maximum(u_k, _LOG_CLAMP))
    h_s = cst.enthalpy(problem.law, np.maximum(u_s, _LOG_CLAMP))
    dpsi = mesh.edge_differences(psi)
    w = (h_s - h_k) - sign * dpsi
    mins = np.minimum(u_k, u_s)
    return float(np.sum(mesh.edge_tau * np.where(mins > 0.0, mins * w ** 2, 0.0)))


def production(problem: Problem, state: State, eq: State) -> float:
    """Entropy dissipation I of the state."""
    total = (_edge_dissipation(problem, state.n, state.psi, 1.0)
             + _edge_dissipation(problem, state.p, state.psi, -1.0))
    if not problem.recombination.is_none:
        law = problem.law
        r, _ = evaluate_recombination(problem.recombination,
                                      state.n.cell_values, state.p.cell_values)
        dh = (cst.enthalpy(law, np.maximum(state.n.cell_values, _LOG_CLAMP))
              + cst.enthalpy(law, np.maximum(state.p.cell_values, _LOG_CLAMP))
              - cst.enthalpy(law, np.maximum(eq.n.cell_values, _LOG_CLAMP))
              - cst.enthalpy(law, np.maximum(eq.p.cell_values, _LOG_CLAMP)))
        total += float(np.sum(problem.mesh.cell_measures * r * dh))
    return total


def f_functional(problem: Problem, state: State, eq: State) -> float:
    """Quadratic distance F = ||N-N^eq||^2 + ||P-P^eq||^2 + lambda^2/2 |DPsi|^2."""
    mesh = problem.mesh
    dn = norm_l2(mesh, state.n.cell_values - eq.n.cell_values)
    dp = norm_l2(mesh, state.p.cell_values - eq.p.cell_values)
    dpsi = seminorm_h1(mesh, _diff_function(state.psi, eq.psi))
    return dn ** 2 + dp ** 2 + 0.5 * problem.lambda2 * dpsi ** 2


def make_record(state: State, eq: State, problem: Problem, fp_iters: int,
                prev_record: Optional[DiagnosticsRecord],
                dt: float = 0.0) -> DiagnosticsRecord:
    e = entropy(problem, state, eq)
    i = production(problem, state, eq) if state.step > 0 else 0.0
    mesh = problem.mesh
    slack = 0.0
    if prev_record is not None:
        slack = prev_record.entropy - e - dt * i
    return DiagnosticsRecord(
        step=state.step, t=state.time, entropy=e, production=i,
        f_functional=f_functional(problem, state, eq),
        l2_n=norm_l2(mesh, state.n.cell_values - eq.n.cell_values),
        l2_p=norm_l2(mesh, state.p.cell_values - eq.p.cell_values),
        l2_psi=norm_l2(mesh, state.psi.cell_values - eq.psi.cell_values),
        min_n=float(np.min(state.n.cell_values)),
        max_n=float(np.max(state.n.cell_values)),
        min_p=float(np.min(state.p.cell_values)),
        max_p=float(np.max(state.p.cell_values)),
        fp_iters=fp_iters, slack=slack)


def entropy_slack_tolerance(fp_tol: float, e0: float) -> float:
    """Allowed per-step inequality defect from finite fixed-point accuracy."""
    return 10.0 * fp_tol * (1.0 + e0)


def check_entropy_chain(records, fp_tol: float):
    """Per-step inequality E^{n} + dt I^{n} <= E^{n-1} up to fp slack.

    Returns the list of violating step indices (empty when the chain holds).
    """
    if not records:
        return []
    eps = entropy_slack_tolerance(fp_tol, records[0].entropy)
    return [r.step for r in records[1:] if r.slack < -eps]


@dataclass
class DecayFit:
    rate: float           # alpha in E ~ C exp(-alpha t)
    r_squared: float
    n_points: int
    t_start: float
    t_end: float


def fit_decay_rate(records, floor: Optional[float] = None) -> DecayFit:
    """Least-squares fit of log E^n against t on the resolved window.

    Points with E below ``floor`` (default 1e-12 E^0) are excluded: once the
    entropy reaches the fixed-point noise level its logarithm is meaningless.
    """
    ts = np.array([r.t for r in records])
    es = np.array([r.entropy for r in records])
    if floor is None:
        floor = 1e-12 * es[0] if es[0] > 0.0 else 0.0
    keep = es > max(floor, 0.0)
    ts, es = ts[keep], es[keep]
    if len(ts) < 10:
        raise ValueError(f"only {len(ts)} entropy values above the floor; "
                         "cannot fit a decay rate")
    y = np.log(es)
    if np.ptp(y) == 0.0:
        return DecayFit(0.0, 1.0, len(ts), float(ts[0]), float(ts[-1]))
    slope, intercept = np.polyfit(ts, y, 1)
    fit = slope * ts + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return DecayFit(-float(slope), r2, len(ts), float(ts[0]), float(ts[-1]))


_CSV_HEADER = ("step,t,E,I,F,l2_N,l2_P,l2_Psi,"
               "min_N,max_N,min_P,max_P,fp_iters,slack")


def write_csv(records, path) -> None:
    """Write one diagnostics row per time level (17 significant digits)."""
    fmt = "%.17g"
    with open(path, "w", encoding="utf-8") as f:
        f.write(_CSV_HEADER + "\n")
        for r in records:
            nums = (r.t, r.entropy, r.production, r.f_functional,
                    r.l2_n, r.l2_p, r.l2_psi,
                    r.min_n, r.max_n, r.min_p, r.max_p)
            f.write("%d,%s,%d,%s\n" % (
                r.step, ",".join(fmt % v for v in nums),
                r.fp_iters, fmt % r.slack))


def read_csv(path):
    """Inverse of :func:`write_csv`."""
    records = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected diagnostics header: {header!r}")
        for line in f:
            parts = line.strip().split(",")
            records.append(DiagnosticsRecord(
                step=int(parts[0]), t=float(parts[1]), entropy=float(parts[2]),
                production=float(parts[3]), f_functional=float(parts[4]),
                l2_n=float(parts[5]), l2_p=float(parts[6]), l2_psi=float(parts[7]),
                min_n=float(parts[8]), max_n=float(parts[9]),
                min_p=float(parts[10]), max_p=float(parts[11]),
                fp_iters=int(parts[12]), slack=float(parts[13])))
    return records
