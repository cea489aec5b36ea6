"""Pressure laws and derived thermodynamic functions.

A pressure law r(s) determines the enthalpy h(s) = int_1^s r'(t)/t dt, its
antiderivative H with H(1) = 0, the generalized inverse g of h (clipped to 0
below h(0+)), and the edge diffusion mean dr(a, b) = (h(b)-h(a))/(log b -
log a) that makes the generalized exponential-fitting flux vanish exactly at
discrete thermal equilibrium.

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

    @property
    def h_at_zero(self) -> float:
        """h(0+): -inf isothermal, -alpha/(alpha-1) for the power law."""
        if self.is_isothermal:
            return -np.inf
        return -self.alpha / (self.alpha - 1.0)

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


def dr_mean(law: PressureLaw, a, b):
    """Edge diffusion coefficient dr(a, b).

    (h(b)-h(a))/(log b - log a) for distinct positive arguments, otherwise
    r'((a+b)/2).  Symmetric, nonnegative, and identically 1 in the isothermal
    case.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if law.is_isothermal:
        return np.ones(np.broadcast(a, b).shape)
    mid = pressure_prime(law, 0.5 * (a + b))
    pos = (a > 0.0) & (b > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dlog = np.where(pos, np.log(np.where(pos, b, 1.0)) - np.log(np.where(pos, a, 1.0)), 0.0)
        quotient = np.where(pos, enthalpy(law, np.where(pos, b, 1.0))
                            - enthalpy(law, np.where(pos, a, 1.0)), 0.0)
        ratio = quotient / np.where(dlog == 0.0, 1.0, dlog)
    use_quotient = pos & (np.abs(dlog) >= _DR_LOG_TOL)
    return np.where(use_quotient, ratio, mid)
