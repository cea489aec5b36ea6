"""Pressure laws and derived thermodynamic functions.

A pressure law r(s) determines the enthalpy h(s) = int_1^s r'(t)/t dt, its
antiderivative H with H(1) = 0, the generalized inverse g of h (clipped to 0
below h(0+)), and the edge diffusion mean dr(a, b) = (h(b)-h(a))/(log b -
log a) that makes the generalized exponential-fitting flux vanish exactly at
discrete thermal equilibrium.  ``dr_indexed`` is the one dr kernel: it
evaluates log and h once per value (a cell or a Dirichlet datum) and gathers
them per edge; ``dr_mean`` is the same kernel on pointwise pairs.

Two variants are provided: isothermal (r = Id, h = log, g = exp) and the
power law r(s) = s^alpha with alpha > 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Switch to the r'((a+b)/2) branch of dr when the enthalpy quotient is 0/0.
_DR_LOG_TOL = 1e-12


@dataclass(frozen=True)
class PressureLaw:
    """Pressure r(s) = s^alpha; alpha == 1 is the isothermal case."""
    alpha: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.alpha < math.inf:
            raise ValueError(f"pressure exponent must be finite and >= 1, got {self.alpha!r}")

    @classmethod
    def isothermal(cls) -> "PressureLaw":
        return cls(1.0)

    @classmethod
    def power(cls, alpha: float) -> "PressureLaw":
        if not 1.0 < alpha < math.inf:
            raise ValueError(f"power law requires a finite alpha > 1, got {alpha!r}")
        return cls(alpha)

    @property
    def is_isothermal(self) -> bool:
        return self.alpha == 1.0

    def __str__(self):
        return "isothermal" if self.is_isothermal else f"power(alpha={self.alpha:g})"


def pressure(law: PressureLaw, s):
    s = np.asarray(s, dtype=float)
    return s if law.is_isothermal else s ** law.alpha


def pressure_prime(law: PressureLaw, s):
    s = np.asarray(s, dtype=float)
    if law.is_isothermal:
        return np.ones_like(s)
    return law.alpha * s ** (law.alpha - 1.0)


def enthalpy(law: PressureLaw, s):
    """h(s); log(s) isothermal, (alpha/(alpha-1))(s^(alpha-1) - 1) power."""
    s = np.asarray(s, dtype=float)
    if law.is_isothermal:
        with np.errstate(divide="ignore"):
            return np.log(s)
    a = law.alpha
    return (a / (a - 1.0)) * (s ** (a - 1.0) - 1.0)


def big_h(law: PressureLaw, s):
    """Antiderivative H of h with H(1) = 0 (convex, minimum at s = 1)."""
    s = np.asarray(s, dtype=float)
    if law.is_isothermal:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = s * np.log(s) - s + 1.0
        return np.where(s == 0.0, 1.0, out)
    a = law.alpha
    return s ** a / (a - 1.0) - (a / (a - 1.0)) * s + 1.0


def g_inverse(law: PressureLaw, s):
    """Generalized inverse of h: h^{-1} above h(0+), zero at or below it."""
    s = np.asarray(s, dtype=float)
    if law.is_isothermal:
        return np.exp(s)
    a = law.alpha
    base = np.maximum(0.0, 1.0 + (a - 1.0) * s / a)
    return base ** (1.0 / (a - 1.0))


def g_prime(law: PressureLaw, s):
    """One-sided derivative of g; zero at and below the clipping kink."""
    s = np.asarray(s, dtype=float)
    if law.is_isothermal:
        return np.exp(s)
    a = law.alpha
    base = np.maximum(0.0, 1.0 + (a - 1.0) * s / a)
    return base ** ((2.0 - a) / (a - 1.0)) / a


def dr_indexed(law: PressureLaw, values, first, other):
    """Edge diffusion coefficient dr(values[..., first], values[..., other]).

    ``values`` holds one row of values per block (or is one row), and each
    row is paired by the same indices.  log and h are evaluated once per
    value and gathered per pair, so a cell value shared by several edges
    costs one evaluation.  A pair of distinct
    positive values takes the quotient (h(b)-h(a))/(log b - log a), and only
    the other pairs (a zero, equal values, or |log b - log a| below
    ``_DR_LOG_TOL``) evaluate r'((a+b)/2).  Exactly symmetric in the pair.
    """
    values = np.asarray(values, dtype=float)
    first = np.asarray(first)
    other = np.asarray(other)
    if law.is_isothermal:
        return np.ones(values.shape[:-1] + first.shape)
    # A value that is not positive becomes NaN, and so does the dlog of each
    # of its pairs, which then fails the test below and takes r'.
    positive = np.where(values > 0.0, values, np.nan)
    log_v = np.log(positive)
    h_v = enthalpy(law, positive)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN too
        dlog = np.take(log_v, other, axis=-1) - np.take(log_v, first, axis=-1)
        use_quotient = np.abs(dlog) >= _DR_LOG_TOL
        out = np.divide(np.take(h_v, other, axis=-1) - np.take(h_v, first, axis=-1),
                        dlog, out=np.empty(dlog.shape), where=use_quotient)
    mid = ~use_quotient
    if mid.any():
        a = np.take(values, first, axis=-1)[mid]
        b = np.take(values, other, axis=-1)[mid]
        out[mid] = pressure_prime(law, 0.5 * (a + b))
    return out


def dr_mean(law: PressureLaw, a, b):
    """Edge diffusion coefficient dr(a, b), pointwise over broadcast a and b.

    (h(b)-h(a))/(log b - log a) for distinct positive arguments, otherwise
    r'((a+b)/2).  Symmetric, nonnegative, and identically 1 in the isothermal
    case.  Evaluated by ``dr_indexed`` on the values [a, b].
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    pairs = np.arange(a.size)
    values = np.concatenate([a.ravel(), b.ravel()])
    return dr_indexed(law, values, pairs, pairs + a.size).reshape(a.shape)
