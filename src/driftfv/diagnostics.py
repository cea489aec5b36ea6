"""Discrete entropy, dissipation, and decay-rate diagnostics.

The relative entropy of a state (N, P, Psi) with respect to the equilibrium
(N^eq, P^eq, Psi^eq) is

    E = sum_K m(K) [H(N)-H(N^eq)-h(N^eq)(N-N^eq) + (same for P)]
        + lambda^2/2 |Psi - Psi^eq|^2_{1,M}

and the associated dissipation is

    I = sum_sigma tau [min(N_K, N_Ks) (D(h(N)-Psi))^2
                       + min(P_K, P_Ks) (D(h(P)+Psi))^2]
        + sum_K m(K) R(N,P) [h(N)+h(P)-h(N^eq)-h(P^eq)].

Every edge sum, here and in the seminorm |.|_{1,M}, runs over the edges
that carry flux, the mesh's active edges; a Neumann edge adds nothing.

The implicit scheme satisfies E^{n+1} + dt I^{n+1} <= E^n up to the fixed
point tolerance, and E decays exponentially to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, get_type_hints

import numpy as np

from . import constitutive as cst
from .mesh import norm_l2, seminorm_h1
from .problem import Problem, State

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


def _log_enthalpy(law, values):
    return cst.enthalpy(law, np.maximum(values, _LOG_CLAMP))


def _entropy_density(law, s, s_eq):
    return (cst.big_h(law, s) - cst.big_h(law, s_eq)
            - _log_enthalpy(law, s_eq) * (s - s_eq))


def _psi_seminorm(problem: Problem, state: State, eq: State) -> float:
    """|Psi - Psi^eq|_1; both states carry the problem's Dirichlet data, so
    Psi - Psi^eq is 0 there."""
    return seminorm_h1(problem.mesh, state.psi - eq.psi, 0.0)


def _entropy(problem: Problem, state: State, eq: State, dpsi: float) -> float:
    law = problem.law
    mk = problem.mesh.cell_measures
    cells = (np.sum(mk * _entropy_density(law, state.n, eq.n))
             + np.sum(mk * _entropy_density(law, state.p, eq.p)))
    return float(cells + 0.5 * problem.lambda2 * dpsi ** 2)


def entropy(problem: Problem, state: State, eq: State) -> float:
    """Relative entropy E of the state with respect to the equilibrium."""
    return _entropy(problem, state, eq, _psi_seminorm(problem, state, eq))


def _edge_dissipation(problem: Problem, values, dpsi, sign: float):
    """Edge sum of one species from its cell values, then Dirichlet values,
    and D Psi per active edge; also returns h of ``values``."""
    mesh = problem.mesh
    # h once per cell and per Dirichlet value, gathered to both ends of each edge.
    h = _log_enthalpy(problem.law, values)
    first, other = mesh.active_cells
    w = (h[other] - h[first]) - sign * dpsi
    mins = np.minimum(values[first], values[other])
    return float(np.sum(mesh.active_tau * np.where(mins > 0.0, mins * w ** 2, 0.0))), h


def production(problem: Problem, state: State, eq: State) -> float:
    """Entropy dissipation I of the state."""
    mesh = problem.mesh
    first, other = mesh.active_cells
    psi = np.concatenate([state.psi, problem.psi_dirichlet])
    dpsi = psi[other] - psi[first]
    i_n, h_n = _edge_dissipation(
        problem, np.concatenate([state.n, problem.n_dirichlet]), dpsi, 1.0)
    i_p, h_p = _edge_dissipation(
        problem, np.concatenate([state.p, problem.p_dirichlet]), dpsi, -1.0)
    total = i_n + i_p
    if not problem.recombination.is_none:
        law, n = problem.law, mesh.n_cells
        r = problem.recombination.rate(state.n, state.p)
        dh = (h_n[:n] + h_p[:n]
              - _log_enthalpy(law, eq.n) - _log_enthalpy(law, eq.p))
        total += float(np.sum(mesh.cell_measures * r * dh))
    return total


def _quadratic_distance(problem: Problem, l2_n: float, l2_p: float,
                        dpsi: float) -> float:
    return l2_n ** 2 + l2_p ** 2 + 0.5 * problem.lambda2 * dpsi ** 2


def f_functional(problem: Problem, state: State, eq: State) -> float:
    """Quadratic distance F = ||N-N^eq||^2 + ||P-P^eq||^2 + lambda^2/2 |DPsi|^2."""
    mesh = problem.mesh
    return _quadratic_distance(problem, norm_l2(mesh, state.n - eq.n),
                               norm_l2(mesh, state.p - eq.p),
                               _psi_seminorm(problem, state, eq))


def make_record(state: State, eq: State, problem: Problem, fp_iters: int,
                prev_record: Optional[DiagnosticsRecord],
                dt: float = 0.0) -> DiagnosticsRecord:
    mesh = problem.mesh
    dpsi = _psi_seminorm(problem, state, eq)
    l2_n = norm_l2(mesh, state.n - eq.n)
    l2_p = norm_l2(mesh, state.p - eq.p)
    e = _entropy(problem, state, eq, dpsi)
    i = production(problem, state, eq) if state.step > 0 else 0.0
    slack = 0.0
    if prev_record is not None:
        slack = prev_record.entropy - e - dt * i
    return DiagnosticsRecord(
        step=state.step, t=state.time, entropy=e, production=i,
        f_functional=_quadratic_distance(problem, l2_n, l2_p, dpsi),
        l2_n=l2_n, l2_p=l2_p,
        l2_psi=norm_l2(mesh, state.psi - eq.psi),
        min_n=float(np.min(state.n)), max_n=float(np.max(state.n)),
        min_p=float(np.min(state.p)), max_p=float(np.max(state.p)),
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
    floor: float          # E below it was left out


def fit_decay_rate(records, floor: Optional[float] = None) -> DecayFit:
    """Least-squares fit of log E^n against t on the resolved window.

    Points with E below ``floor`` (default 1e-10 E^0) are excluded: once the
    entropy reaches the fixed-point noise level its logarithm is meaningless.
    """
    ts = np.array([r.t for r in records])
    es = np.array([r.entropy for r in records])
    if floor is None:
        floor = 1e-10 * es[0] if es.size and es[0] > 0.0 else 0.0
    keep = es > max(floor, 0.0)
    ts, es = ts[keep], es[keep]
    if len(ts) < 10:
        raise ValueError(f"only {len(ts)} entropy values above the floor; "
                         "cannot fit a decay rate")
    y = np.log(es)
    if np.ptp(y) == 0.0:
        return DecayFit(0.0, 1.0, len(ts), float(ts[0]), float(ts[-1]), floor)
    slope, intercept = np.polyfit(ts, y, 1)
    fit = slope * ts + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return DecayFit(-float(slope), r2, len(ts), float(ts[0]), float(ts[-1]), floor)


# One column per DiagnosticsRecord field, in field order; the header names them.
_CSV_HEADER = ("step,t,E,I,F,l2_N,l2_P,l2_Psi,"
               "min_N,max_N,min_P,max_P,fp_iters,slack")
_FIELD_TYPES = get_type_hints(DiagnosticsRecord)
_CSV_FIELDS = tuple((f.name, _FIELD_TYPES[f.name]) for f in fields(DiagnosticsRecord))


def write_csv(records, path) -> None:
    """Write one diagnostics row per time level: int fields as integers,
    float fields to 17 significant digits."""
    row = ",".join("%d" if cast is int else "%.17g" for _, cast in _CSV_FIELDS) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(_CSV_HEADER + "\n")
        for r in records:
            f.write(row % tuple(getattr(r, name) for name, _ in _CSV_FIELDS))


def read_csv(path):
    """Inverse of :func:`write_csv`."""
    records = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected diagnostics header: {header!r}")
        for line in f:
            values = line.strip().split(",")
            records.append(DiagnosticsRecord(*(
                cast(v) for (_, cast), v in zip(_CSV_FIELDS, values, strict=True))))
    return records
