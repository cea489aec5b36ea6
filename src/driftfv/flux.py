"""Bernoulli function and exponential-fitting two-point fluxes.

The electron flux across an edge is
    F = tau * dr * [B(-dpsi/dr) n_K - B(dpsi/dr) n_Ksigma]
with B the Bernoulli function and dr the edge diffusion mean; the hole flux
uses the opposite potential sign.  With dr = 1 this is the classical
exponential-fitting (Scharfetter-Gummel) flux.
"""
from __future__ import annotations

import numpy as np

# Below this dr the coefficients dr*B(x/dr) are evaluated by their limit
# max(-x, 0), i.e. pure upwind convection.
DR_DEGENERATE = 1e-14

_TAYLOR_CUT = 1e-8
_EXP_CUT = 700.0


def bernoulli(x):
    """B(x) = x/(e^x - 1), B(0) = 1; nonnegative and nonincreasing.

    Stable across the whole double range: Taylor series near 0, saturation
    to 0 (resp. -x) for large positive (resp. negative) arguments.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xv = np.atleast_1d(arr)
    out = np.empty_like(xv)
    small = np.abs(xv) < _TAYLOR_CUT
    big_pos = xv > _EXP_CUT
    big_neg = xv < -_EXP_CUT
    mid = ~(small | big_pos | big_neg)
    xs = xv[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
    out[big_pos] = 0.0
    out[big_neg] = -xv[big_neg]
    out[mid] = xv[mid] / np.expm1(xv[mid])
    return float(out[0]) if scalar else out


def flux_coefficients(dpsi, dr):
    """(a_fwd, a_bwd) so that F = tau*(a_fwd*n_K - a_bwd*n_Ksigma).

    Both coefficients are nonnegative; near-zero dr falls back to the upwind
    limit dr*B(x/dr) -> max(-x, 0).
    """
    dpsi = np.asarray(dpsi, dtype=float)
    dr = np.asarray(dr, dtype=float)
    deg = dr <= DR_DEGENERATE
    drs = np.where(deg, 1.0, dr)
    a_fwd = np.where(deg, np.maximum(dpsi, 0.0), drs * bernoulli(-dpsi / drs))
    a_bwd = np.where(deg, np.maximum(-dpsi, 0.0), drs * bernoulli(dpsi / drs))
    return a_fwd, a_bwd


def sg_flux(tau, n_k, n_ksigma, dpsi, dr=1.0):
    """Generalized electron flux; dr = 1 gives the classical flux.

    The hole flux is the same function called with -dpsi.
    """
    a_fwd, a_bwd = flux_coefficients(dpsi, dr)
    return tau * (a_fwd * n_k - a_bwd * n_ksigma)


def lemma1_residual(tau, n_k, n_ksigma, dpsi, dr, h_k, h_ksigma):
    """Edge dissipation residual; nonpositive for every admissible input.

    R = F * D(h(N)-Psi) + tau * min(n_K, n_Ksigma) * (D(h(N)-Psi))^2,
    with F the generalized electron flux on the edge: the flux times the
    driving force is dominated by minus the quadratic dissipation term, which
    is the form the per-step entropy inequality consumes.  R vanishes for
    equal densities and at discrete equilibrium.
    """
    f = sg_flux(tau, n_k, n_ksigma, dpsi, dr)
    w = (np.asarray(h_ksigma, dtype=float) - np.asarray(h_k, dtype=float)) - np.asarray(dpsi, dtype=float)
    return f * w + np.asarray(tau, dtype=float) * np.minimum(n_k, n_ksigma) * w ** 2
