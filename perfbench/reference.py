"""Independent reference values for the benchmark's correctness checks.

Nothing here imports divpair.  The torus kernel comes from the Fourier
series of the first Jacobi theta function,

    theta1(z | tau) = 2 * sum_{k>=0} (-1)^k q^((k+1/2)^2) sin((2k+1) pi z),
    q = exp(i pi tau),

evaluated after centring z mod the lattice Z + tau Z, which is a different
construction from the library's triple product.  The sphere kernel is
math.log|P - Q|.
"""

from __future__ import annotations

import math

import numpy as np

# Enough terms for Im tau >= 0.05: after centring |Im z| <= Im tau / 2, so the
# k-th term is below exp(-pi Im tau ((k + 1/2)^2 - (k + 1/2))).
THETA_TERMS = 60


def center(w, tau: complex):
    """Representative of w mod Z + tau Z with lattice coordinates in [-1/2, 1/2]."""
    w = np.asarray(w, dtype=complex)
    b = w.imag / tau.imag
    a = w.real - b * tau.real
    return w - np.round(a) - np.round(b) * tau


def theta1(z, tau: complex):
    """theta1(z | tau) from its Fourier series, elementwise over z (no reduction)."""
    z = np.asarray(z, dtype=complex)
    k = np.arange(THETA_TERMS)
    coef = 2.0 * (-1.0) ** k * np.exp(1j * np.pi * tau * (k + 0.5) ** 2)
    return (np.sin(np.multiply.outer(z, (2 * k + 1) * np.pi)) * coef).sum(axis=-1)


def torus_kernel(p, q, tau: complex):
    """g(P, Q) = log|theta1(w)| - pi Im(w)^2 / Im tau, w = P - Q centred; outer over p, q."""
    w = center(np.subtract.outer(np.asarray(p, complex), np.asarray(q, complex)), tau)
    return np.log(np.abs(theta1(w, tau))) - np.pi * w.imag**2 / tau.imag


def sphere_kernel(p: complex, q: complex) -> float:
    return math.log(abs(p - q))


def lattice_distance(w: complex, tau: complex) -> float:
    """Distance from w to the nearest lattice point (tau reduced or nearly so)."""
    c = complex(center(w, tau))
    return min(abs(c - m - n * tau) for m in (-1, 0, 1) for n in (-1, 0, 1))


def contract(left, right, kernel) -> tuple[complex, float]:
    """sum_ij left_i conj(right_j) K_ij and the scale sum_ij |left_i right_j K_ij|.

    The scale is what a relative tolerance on the contraction is taken
    against: rounding in any summation order is bounded by eps times it.
    """
    weights = np.multiply.outer(np.asarray(left, complex), np.conj(np.asarray(right, complex)))
    terms = weights * np.asarray(kernel, float)
    return complex(terms.sum()), float(np.abs(terms).sum())


def string_exponent(momenta, kernel) -> tuple[float, float]:
    """sum_{i != j} Re<p_i, p_j> K_ij and its scale sum_{i != j} |Re<p_i, p_j> K_ij|."""
    p = np.asarray(momenta, complex)
    weights = (p @ p.conj().T).real
    np.fill_diagonal(weights, 0.0)
    terms = weights * np.where(np.eye(len(p), dtype=bool), 0.0, kernel)
    return float(terms.sum()), float(np.abs(terms).sum())
