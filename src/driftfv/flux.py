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

    Stable across the whole double range: x/expm1(x) in one pass, with the
    Taylor series patched in near 0 and saturation to 0 for large positive
    arguments.  Large negative arguments need no patch: expm1(x) is exactly
    -1 there, so the quotient is -x.
    """
    arr = np.asarray(x, dtype=float)
    xv = np.atleast_1d(arr)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = xv / np.expm1(xv)
    small = np.abs(xv) < _TAYLOR_CUT
    if small.any():
        xs = xv[small]
        out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
    big = xv > _EXP_CUT
    if big.any():
        out[big] = 0.0
    return float(out[0]) if arr.ndim == 0 else out


def flux_coefficients(dpsi, dr):
    """(a_fwd, a_bwd) so that F = tau*(a_fwd*n_K - a_bwd*n_Ksigma).

    Both coefficients are nonnegative; near-zero dr falls back to the upwind
    limit dr*B(x/dr) -> max(-x, 0).  One Bernoulli evaluation per edge:
    B(-|x|) = B(|x|) + |x| adds two nonnegative terms, so it loses nothing to
    cancellation.  A float dr of 1 (the isothermal law) skips the dr
    arithmetic.
    """
    dpsi = np.asarray(dpsi, dtype=float)
    unit = isinstance(dr, float) and dr == 1.0
    if unit:
        x = dpsi
    else:
        dr = np.asarray(dr, dtype=float)
        deg = dr <= DR_DEGENERATE
        degenerate = deg.any()
        drs = np.where(deg, 1.0, dr) if degenerate else dr
        x = dpsi / drs
    ax = np.abs(x)
    b_pos = bernoulli(ax)
    b_neg = b_pos + ax
    pos = x >= 0.0
    a_fwd = np.where(pos, b_neg, b_pos)
    a_bwd = np.where(pos, b_pos, b_neg)
    if unit:
        return a_fwd, a_bwd
    a_fwd = drs * a_fwd
    a_bwd = drs * a_bwd
    if degenerate:
        a_fwd = np.where(deg, np.maximum(dpsi, 0.0), a_fwd)
        a_bwd = np.where(deg, np.maximum(-dpsi, 0.0), a_bwd)
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
