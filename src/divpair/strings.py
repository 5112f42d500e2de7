"""Momentum configurations and the pairing factor they attach to marked curves.

Momentum vectors live in C^13 with the standard Hermitian metric, satisfy
the conservation law sum_i p_i = 0, and have unit Hermitian square.  Each
coordinate slot nu yields a degree-zero complex divisor supported on the
marks, and the product over nu of the self-pairing norms of those
divisors (diagonal pairs omitted -- the self-pairing is otherwise
divergent, and the omission is flagged in the result) is the measure
factor computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .curve import kernel_matrix
from .divisor import ComplexDivisor, GaussianRational, MarkedCurve
from .errors import DomainError
from .pairing import _exp

DIMENSION = 13
CONSERVATION_TOL = 1e-12
MASS_TOL = 1e-12
RATIONALIZE_TOL = 1e-9

__all__ = ["MomentumConfig", "StringFactor", "momentum_divisor", "string_pairing_factor"]


@dataclass(frozen=True, slots=True, eq=False)
class MomentumConfig:
    """n on-shell momentum vectors in C^13.

    Validates conservation (componentwise within 1e-12) and the unit
    Hermitian square of every vector (within 1e-12).
    """

    momenta: Iterable[Sequence[complex]]

    def __post_init__(self):
        rows = []
        for vector in self.momenta:
            row = tuple(complex(c) for c in vector)
            if len(row) != DIMENSION:
                raise DomainError(f"momentum vectors must have {DIMENSION} components")
            rows.append(row)
        if not rows:
            raise DomainError("a momentum configuration needs at least one vector")
        for nu in range(DIMENSION):
            total = sum(row[nu] for row in rows)
            if abs(total) > CONSERVATION_TOL:
                raise DomainError("momentum conservation violated")
        for row in rows:
            square = sum(abs(c) ** 2 for c in row)
            if abs(square - 1.0) > MASS_TOL:
                raise DomainError("momentum vector must have unit Hermitian square")
        object.__setattr__(self, "momenta", tuple(rows))

    def __len__(self) -> int:
        return len(self.momenta)

    def apply_unitary(self, matrix) -> "MomentumConfig":
        """Rotate every vector by a 13x13 unitary (rows transform as p -> U p)."""
        return MomentumConfig((np.array(self.momenta) @ np.asarray(matrix, dtype=complex).T).tolist())


def momentum_divisor(mc: MarkedCurve, cfg: MomentumConfig, nu: int) -> ComplexDivisor:
    """Degree-zero divisor with the nu-th momentum components as mark coefficients.

    Components are rationalized to Gaussian rationals (denominators up to
    10^9) and conservation is re-imposed exactly by solving for the last
    coefficient; if that adjustment moves the last component by more than
    1e-9 the configuration is rejected.
    """
    if not 0 <= nu < DIMENSION:
        raise DomainError("component index out of range")
    n = len(cfg)
    if mc.n_marks != n:
        raise DomainError("marks and momenta counts must match")
    coeffs = [GaussianRational.from_complex(cfg.momenta[i][nu]) for i in range(n - 1)]
    last = GaussianRational(0)
    for coeff in coeffs:
        last = last - coeff
    if abs(last.to_complex() - cfg.momenta[n - 1][nu]) > RATIONALIZE_TOL:
        raise DomainError("conservation violated after rationalization")
    coeffs.append(last)
    return ComplexDivisor(mc, marked=list(enumerate(coeffs)))


@dataclass(frozen=True, slots=True)
class StringFactor:
    """Pairing factor of a momentum configuration, with per-component detail.

    ``diagonal_omitted`` records that coincident-point kernel terms were
    skipped in every self-pairing exponent.  A factor is inf or 0 when its
    exponential leaves the float range.
    """

    factor: float
    exponent: float
    per_component: tuple[float, ...]
    diagonal_omitted: bool = True


def string_pairing_factor(mc: MarkedCurve, cfg: MomentumConfig) -> StringFactor:
    """exp( sum_{i != j} Re<p_i, p_j> g(Q_i, Q_j) ), with per-nu factors.

    Equals the product over nu of the diagonal-omitted self-pairing norms
    of the component divisors; the float momenta are used directly here,
    the rationalized route is available through ``momentum_divisor``.
    """
    if mc.n_marks != len(cfg):
        raise DomainError("marks and momenta counts must match")
    kernel, _, _ = kernel_matrix(mc.curve, mc.marks, mc.marks)
    momenta = np.array(cfg.momenta)
    # the diagonal of the kernel matrix is masked to 0, so i == j drops out
    per_component = np.einsum("iv,ij,jv->v", momenta, kernel, momenta.conj()).real
    total_exponent = math.fsum(per_component)
    return StringFactor(
        factor=_exp(total_exponent),
        exponent=total_exponent,
        per_component=tuple(_exp(e) for e in per_component),
    )
