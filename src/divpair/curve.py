"""Explicit curve geometries and their symmetric Green kernels.

Two geometries are supported: the Riemann sphere (affine chart plus one
point at infinity) and the complex torus C/(Z + tau*Z) with Im(tau) > 0.
Both supply the real symmetric kernel g(P, Q) with a logarithmic
singularity on the diagonal:

    sphere:  g(P, Q) = log|P - Q|
    torus:   g(P, Q) = log|theta1(P - Q | tau)| - pi * Im(P - Q)^2 / Im(tau)

The torus kernel is doubly periodic (the quadratic counterterm exactly
compensates the quasi-periodicity of theta1), and the additive-constant
ambiguity of either kernel drops out of every degree-zero divisor sum.

A point at infinity on the sphere is permitted only inside degree-zero
divisors; kernel terms at infinity are dropped from divisor sums rather
than assigned an arbitrary chart normalization, so no kernel value at
infinity is ever defined here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegreeZeroRequiredError, DiagonalSingularityError, DomainError, TrivialJacobianError

if TYPE_CHECKING:  # pragma: no cover
    from .divisor import ComplexDivisor

SPHERE_POINT_TOL = 1e-12
TORUS_POINT_TOL = 1e-9
# a lattice coordinate this close to an integer, relative to the terms it is computed from (at least 1),
# is that integer: the rounding of a point on a cell edge (``Torus.reduce_point``)
EDGE_RTOL = 64 * 2.0**-52

# theta1's Fourier series keeps the terms k with |q|^(k^2) >= 1e-17
_LOG_THETA_CUTOFF = math.log(1e-17)

# one centred difference (``Torus._centred``): s*w = (-1)^odd z + m + n tau'
_CENTRING = np.dtype([("w", complex), ("z", complex), ("n", float), ("m", float), ("odd", bool)])

__all__ = [
    "CurvePoint",
    "CurveModel",
    "Sphere",
    "Torus",
    "theta1",
    "theta1_log_derivative",
    "green_kernel",
    "kernel_matrix",
    "green_divisor",
    "abel_jacobi_sum",
]


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """A point on a curve: an affine coordinate, or the sphere's infinity.

    Structural equality only; geometric equality (lattice equivalence on
    the torus, coordinate tolerance on the sphere) goes through
    ``CurveModel.points_equal``.
    """

    z: complex = 0j
    at_infinity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        if self.at_infinity:
            object.__setattr__(self, "z", 0j)

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(0j, True)

    def sort_key(self):
        return (self.at_infinity, self.z.real, self.z.imag)

    def __repr__(self):
        if self.at_infinity:
            return "CurvePoint(inf)"
        return f"CurvePoint({self.z!r})"


def as_point(value) -> CurvePoint:
    """Coerce a complex number (or CurvePoint) to a CurvePoint."""
    if isinstance(value, CurvePoint):
        return value
    return CurvePoint(complex(value))


class CurveModel:
    """Common surface of the two concrete geometries."""

    genus: int
    point_tol: float  # points closer than this (``point_distance``) coincide

    def points_equal(self, p, q) -> bool:
        raise NotImplementedError

    def point_distance(self, p, q) -> float:
        raise NotImplementedError

    def add_at(self, entries: list, point, weight) -> int:
        """Add ``weight`` at ``point`` to a list of (point, weight) entries with pairwise distinct points.

        The one coincidence rule of divisors and functions: the weight goes onto the
        first entry whose point coincides with ``point`` (``points_equal``, the
        existing point first), otherwise it becomes a new last entry.  Returns the
        entry's index.
        """
        for k, (existing, total) in enumerate(entries):
            if self.points_equal(existing, point):
                entries[k] = (existing, total + weight)
                return k
        entries.append((point, weight))
        return len(entries) - 1

    def reduce_point(self, p) -> CurvePoint:
        raise NotImplementedError

    def kernel(self, p, q) -> float:
        """The bare kernel formula; callers exclude coincident and infinite pairs."""
        raise NotImplementedError

    def _kernel_values(self, reduced: np.ndarray) -> np.ndarray:
        """The bare kernel at each entry of an array of reduced differences (``_reduce_pairs``)."""
        raise NotImplementedError

    def _reduce_pairs(self, left, right) -> tuple[np.ndarray, np.ndarray]:
        """(distance, reduced) over every pair of two CurvePoint sequences, in one array pass: ``point_distance``
        bit for bit, and P_i - Q_j in the form ``_kernel_values`` and ``_log_factors`` take."""
        raise NotImplementedError

    def _log_factors(self, reduced: np.ndarray) -> np.ndarray:
        """log of the prime factor, w or theta1(w), at each entry of a 1-D array of reduced differences
        (``_reduce_pairs``), on some branch."""
        raise NotImplementedError


@dataclass(frozen=True)
class Sphere(CurveModel):
    """The Riemann sphere; genus 0, no parameters."""

    genus: int = field(default=0, init=False)
    point_tol = SPHERE_POINT_TOL

    def points_equal(self, p, q) -> bool:
        return self.point_distance(p, q) < self.point_tol

    def point_distance(self, p, q) -> float:
        p, q = as_point(p), as_point(q)
        if p.at_infinity and q.at_infinity:
            return 0.0
        if p.at_infinity or q.at_infinity:
            return math.inf
        return abs(p.z - q.z)

    def reduce_point(self, p) -> CurvePoint:
        return as_point(p)

    def _reduce_pairs(self, left, right) -> tuple[np.ndarray, np.ndarray]:
        """The differences themselves, and their moduli as ``abs`` rounds them; infinity apart."""
        w = _pair_differences(left, right)
        distance = np.hypot(w.real, w.imag)
        left_inf = np.array([p.at_infinity for p in left], dtype=bool)[:, None]
        right_inf = np.array([q.at_infinity for q in right], dtype=bool)[None, :]
        if left_inf.any() or right_inf.any():
            distance[left_inf | right_inf] = math.inf
            distance[left_inf & right_inf] = 0.0
        return distance, w

    def kernel(self, p, q) -> float:
        return float(self._kernel_values(np.array([as_point(p).z - as_point(q).z]))[0])

    def _kernel_values(self, reduced: np.ndarray) -> np.ndarray:
        return np.log(np.abs(reduced))

    def _log_factors(self, differences: np.ndarray) -> np.ndarray:
        return np.log(differences)


@dataclass(frozen=True)
class Torus(CurveModel):
    """The complex torus C/(Z + tau*Z), tau in the upper half-plane.

    tau is reduced once, at construction (``_reduce_modulus``): every kernel
    entry, theta1 value and lattice distance starts from w' = s*w on the torus
    of the reduced modulus tau', which describes the same lattice scaled by s.
    theta1 of tau' is its Fourier series, whose coefficients
    a_k = (-1)^k q^(k^2), q = exp(i pi tau'), are tabulated once for k < K:
    K is the least integer with |q|^(K^2) < 1e-17, at most 4 since
    Im tau' >= sqrt(3)/2 (``_fourier``).  The kernel and theta1 (``_series``)
    and the certificate's log-derivative (``_log_derivative_sum``) sum it in
    expm1 form over whole arrays of centred points.
    """

    tau: complex = 1j
    genus: int = field(default=1, init=False)
    point_tol = TORUS_POINT_TOL

    def __post_init__(self):
        tau = _require_upper_half(self.tau)
        object.__setattr__(self, "tau", tau)
        reduced, scale, log_constant, quadratic = _reduce_modulus(tau)
        h = math.pi * reduced.imag
        terms = int(math.sqrt(-_LOG_THETA_CUTOFF / h)) + 1
        nome = cmath.exp(1j * math.pi * reduced)
        coefficients = [(-1) ** k * nome ** (k * k) for k in range(terms)]
        # plain data, not dataclass fields: equality and hashing stay by tau
        object.__setattr__(self, "_reduced_tau", reduced)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_log_constant", log_constant)
        object.__setattr__(self, "_slope", 2.0 * quadratic)
        # (a_k, (2k + 1) a_k) for k = K-1 down to 1, in Horner order; a_0 = 1 is written out
        object.__setattr__(self, "_fourier", tuple(
            (coefficients[k], (2 * k + 1) * coefficients[k]) for k in range(terms - 1, 0, -1)))
        # per-entry kernel constant: C - pi Im(tau')/4
        object.__setattr__(self, "_kernel_constant", log_constant.real - 0.25 * h)

    def lattice_coords(self, z: complex) -> tuple[float, float]:
        """Real coordinates (a, b) with z = a + b*tau."""
        z = complex(z)
        b = z.imag / self.tau.imag
        a = z.real - b * self.tau.real
        return a, b

    def from_lattice_coords(self, a: float, b: float) -> complex:
        return complex(a, 0.0) + b * self.tau

    def reduce_point(self, p) -> CurvePoint:
        """Representative in the fundamental cell {a + b*tau : a, b in [0,1)}, z - floor(a) - floor(b)*tau.

        A coordinate within ``EDGE_RTOL`` of an integer (b first, then a from the snapped b) is that
        integer, and the representative's coordinate is exactly 0 (``lattice_coords`` of it reads 0.0),
        so every input of a point on a cell edge gets one representative inside the cell.
        """
        p = as_point(p)
        if p.at_infinity:
            raise DomainError("the torus has no point at infinity")
        z, tau = p.z, self.tau
        b = z.imag / tau.imag
        kb = round(b)
        b_edge = abs(b - kb) <= EDGE_RTOL * max(1.0, abs(b))
        if b_edge:
            b = kb
        a = z.real - b * tau.real
        ka = round(a)
        a_edge = abs(a - ka) <= EDGE_RTOL * max(1.0, abs(z.real) + abs(b * tau.real))
        z = z - (ka if a_edge else math.floor(a)) - (kb if b_edge else math.floor(b)) * tau
        if b_edge:
            z = complex(z.real, 0.0)
        if a_edge:
            z = complex(z.imag / tau.imag * tau.real, z.imag)
        return CurvePoint(z)

    def lattice_defect(self, z: complex) -> float:
        """Distance from z to the nearest lattice point, the scalar reference of ``_reduce_pairs``.

        At the centred point z' of s*z (``_centred``: 0 <= Im z' <= Im tau'/2, |Re z'| <= 1/2)
        the nearest point of Z + tau'*Z is 0 or tau' + k, k = -1, 0, 1, since Im tau' >= sqrt(3)/2
        and |Re tau'| <= 1/2 put every other lattice point farther away; the distance is
        |s|^-1 min(|z'|, |z' - tau' - k|).  The centring repeats ``_centred``'s roundings.
        """
        s, tau = self._scale, self._reduced_tau
        w = s * complex(z)
        n = float(round(w.imag / tau.imag))
        x = w.real - n * tau.real
        x -= round(x)
        y = w.imag - n * tau.imag
        if y < 0:
            x, y = -x, -y
        # abs() of a complex rounds as np.hypot does
        nearest = min(abs(complex(x, y)), *(abs(complex(x - tau.real - k, y - tau.imag)) for k in (-1, 0, 1)))
        return nearest / abs(s)

    def points_equal(self, p, q) -> bool:
        return self.point_distance(p, q) < self.point_tol

    def point_distance(self, p, q) -> float:
        return self.lattice_defect(as_point(p).z - as_point(q).z)

    def _reduce_pairs(self, left, right) -> tuple[np.ndarray, np.ndarray]:
        """The centring of every s*(P_i - Q_j) (``_centred``) and the lattice distances
        ``lattice_defect`` takes from its centred points, with its roundings."""
        centring = self._centred(_pair_differences(left, right))
        tau, x, y = self._reduced_tau, centring["z"].real, centring["z"].imag
        nearest = np.hypot(x, y)
        for k in (-1, 0, 1):
            np.minimum(nearest, np.hypot(x - tau.real - k, y - tau.imag), out=nearest)
        return nearest / abs(self._scale), centring

    def kernel(self, p, q) -> float:
        return float(self._kernel_values(self._centred(np.array([as_point(p).z - as_point(q).z])))[0])

    def _centred(self, w: np.ndarray) -> np.ndarray:
        """Centre every difference of the complex array w on the reduced lattice, in one array pass.

        Returns the centring of w, a record array of its shape (``_CENTRING``): s*w = (-1)^odd z + m + n tau'
        with the fields n and m integer-valued floats and 0 <= Im z <= Im tau'/2, where n = round(Im(s*w)/Im tau'),
        m = round(Re(s*w - n tau')), and odd where s*w - n tau' - m lies below the real axis; the field w keeps
        the difference itself.  Real and imaginary parts are separate float arrays and every product is written
        out as Python's complex ``*`` computes it, so each entry equals the scalar centring bit for bit
        (``+ 0.0`` keeps a rounded -0.0 from flipping the sign of a zero).
        """
        tau, s = self._reduced_tau, self._scale
        wr, wi = s.real * w.real - s.imag * w.imag, s.real * w.imag + s.imag * w.real
        n = np.rint(wi / tau.imag) + 0.0
        zr = wr - n * tau.real
        m = np.rint(zr) + 0.0
        zr = zr - m
        zi = wi - n * tau.imag
        odd = zi < 0
        centring = np.empty(w.shape, dtype=_CENTRING)
        centring["w"], centring["n"], centring["m"], centring["odd"] = w, n, m, odd
        z = centring["z"]
        z.real = np.where(odd, -zr, zr)
        z.imag = np.where(odd, -zi, zi)
        return centring

    def _series(self, centred: np.ndarray) -> np.ndarray:
        """The theta1 Fourier sum S(z') = sum_k a_k p^k expm1(2 pi i (2k + 1) z'), p = exp(i pi (tau' - 2 z')),
        at each entry z' of an array of centred points (``_centred``), in one array pass:
        theta1(z' | tau') = -i q^(1/4) exp(-i pi z') S(z').

        Horner in p over k = K-1, ..., 0.  Since 0 <= Im z' <= Im tau'/2, |p| <= 1 and every expm1 factor
        has modulus at most 2, so no term over- or underflows at any Im tau, and no term cancels: S keeps
        its relative accuracy as z' -> 0, where x^(2k+1) - 1 with x = exp(2 pi i z') loses digits.
        """
        phase = 2j * math.pi * centred
        p = np.exp(1j * math.pi * self._reduced_tau - phase)
        total = 0j
        for k, (a, _) in zip(range(len(self._fourier), 0, -1), self._fourier):
            total = (total + a * np.expm1((2 * k + 1) * phase)) * p
        return total + np.expm1(phase)

    def _kernel_values(self, centring: np.ndarray) -> np.ndarray:
        """g_tau(w) = g_tau'(s*w) + C, C = -1/2 sum log|tau_k|, at each entry of an array of centrings (``_centred``).

        The kernel of the reduced modulus is even and doubly periodic, so it is taken at the centred point z',
        0 <= Im z' <= Im tau'/2, over the whole array:
            g_tau'(z') = log|S(z')| + pi Im z' (1 - Im z'/Im tau') - pi Im tau'/4,
        S the sum of ``_series``, whose relative accuracy near z' = 0 makes the kernel exact to rounding
        near the diagonal.
        """
        z = centring["z"]
        im = z.imag
        gaussian = math.pi * im * (1.0 - im / self._reduced_tau.imag)
        return np.log(np.abs(self._series(z))) + gaussian + self._kernel_constant

    def _log_derivative_sum(self, nodes: np.ndarray, items) -> np.ndarray:
        """sum_P n_P (theta1'/theta1)(z - P | tau) at each node z, over (P, n_P) items, in this torus's coordinates.

        (theta1'/theta1)(w | tau) = s (theta1'/theta1)(s*w | tau') + beta*w (``_reduce_modulus``,
        beta = ``_slope``).  Every difference z - P of the nodes x support grid is centred in one
        ``_centred`` pass, with (theta1'/theta1)(w + tau') = (theta1'/theta1)(w) - 2 pi i and oddness;
        differentiating the Fourier series of ``_series`` there, with E_k = expm1(2 pi i (2k + 1) z'),
            (theta1'/theta1)(z') = i pi sum_k (2k + 1) a_k p^k (E_k + 2) / sum_k a_k p^k E_k,
        both sums in one Horner loop in p over the whole grid.  Neither cancels as z' -> 0, so the
        ratio keeps its relative accuracy near the poles.  The ratios are contracted with the
        coefficients to i pi T for each node; returns s (i pi T) + beta (sum_P n_P z - sum_P n_P P).
        """
        points = np.array([as_point(point).z for point, _ in items], dtype=complex)
        coeffs = np.array([coeff for _, coeff in items], dtype=complex)
        centring = self._centred(nodes[:, None] - points)
        phase = 2j * math.pi * centring["z"]
        p = np.exp(1j * math.pi * self._reduced_tau - phase)
        numerator, denominator = 0j, 0j
        for k, (a, b) in zip(range(len(self._fourier), 0, -1), self._fourier):
            factor = np.expm1((2 * k + 1) * phase)
            numerator = (numerator + b * (factor + 2.0)) * p
            denominator = (denominator + a * factor) * p
        factor = np.expm1(phase)
        ratio = (numerator + (factor + 2.0)) / (denominator + factor)
        ratio = np.where(centring["odd"], -ratio, ratio) - 2.0 * centring["n"]
        # sums rather than @: the first BLAS call of a process allocates its buffers, about 0.3 MB
        return (self._scale * (1j * math.pi * (ratio * coeffs).sum(axis=1))
                + self._slope * (coeffs.sum() * nodes - (coeffs * points).sum()))

    def _theta1_parts(self, centring: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(L, S) with theta1(w | tau) = exp(L) S at each entry of a 1-D array of centrings (``_centred``).

        theta1(w | tau) = exp(c + a w^2) theta1(s w | tau') (``_reduce_modulus``) and, with
        s w = (-1)^odd z' + m + n tau' and S the sum of ``_series``,
            theta1(s w) = (-1)^(m + n + odd) exp(-i pi n (n tau' + 2 (-1)^odd z')) theta1(z'),
            theta1(z') = -i exp(i pi tau'/4 - i pi z') S(z'),
        by theta1(z + 1) = -theta1(z), theta1(z + tau) = -exp(-i pi tau - 2 pi i z) theta1(z), oddness;
        both over the whole array.
        """
        tau, pi_i = self._reduced_tau, 1j * math.pi
        w, z, n, m, odd = (centring[field] for field in ("w", "z", "n", "m", "odd"))
        scales = (self._log_constant + 0.5 * self._slope * w * w
                  + pi_i * (m + n + odd - 0.5 + 0.25 * tau - z)
                  - pi_i * n * (n * tau + 2.0 * np.where(odd, -z, z)))
        return scales, self._series(z)

    def _log_factors(self, centring: np.ndarray) -> np.ndarray:
        """log theta1(w | tau) = L + log S (``_theta1_parts``), finite wherever S is nonzero."""
        scales, sums = self._theta1_parts(centring)
        return scales + np.log(sums)


def _require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise DomainError("tau must have positive imaginary part")
    return tau


def _reduce_modulus(tau: complex) -> tuple[complex, complex, complex, complex]:
    """Move tau into the fundamental domain |Re tau| <= 1/2, |tau| >= 1.

    Returns (tau', s, c, a) with Z + tau*Z = (Z + tau'*Z) / s and, for every z,
        theta1(z | tau) = exp(c + a*z^2) theta1(s*z | tau'),
        (theta1'/theta1)(z | tau) = s (theta1'/theta1)(s*z | tau') + 2*a*z,
    by T steps theta1(z | tau) = exp(i*pi*k/4) theta1(z | tau - k) and S steps
    theta1(z | tau) = i (-i*tau)^(-1/2) exp(-i*pi*z^2/tau) theta1(z/tau | -1/tau).
    Re c = -1/2 sum log|tau_k| over the S-step moduli tau_k, so the kernel of
    tau is the kernel of tau' at s*z plus Re c.  A reduced tau returns
    (tau, 1, 0, 0).  An S step raises Im tau by 1/|tau|^2 > 1; the 1e-12
    slack stops rounding cycles.
    """
    log_constant, scale, quadratic = 0j, 1 + 0j, 0j
    while True:
        k = round(tau.real)
        tau -= k
        log_constant += 0.25j * math.pi * k
        norm = tau.real * tau.real + tau.imag * tau.imag
        if norm >= 1.0 - 1e-12:
            return tau, scale, log_constant, quadratic
        log_constant += 0.5j * math.pi - 0.5 * cmath.log(-1j * tau)
        quadratic -= 1j * math.pi * scale * scale / tau
        scale /= tau
        tau = complex(-tau.real / norm, tau.imag / norm)


def _pair_differences(left, right) -> np.ndarray:
    """P_i - Q_j over two CurvePoint sequences; numpy's complex ``-`` rounds each part as Python's does."""
    p = np.array([point.z for point in left], dtype=complex)
    q = np.array([point.z for point in right], dtype=complex)
    return p[:, None] - q[None, :]


def theta1(z: complex, tau: complex) -> complex:
    """First Jacobi theta function theta1(z | tau), for any tau with Im tau > 0.

    theta1(z) = 2 sum_{k>=0} (-1)^k exp(i*pi*tau*(k + 1/2)^2) sin((2k + 1) pi z), evaluated
    after SL2(Z) reduction as this Fourier series on the reduced modulus, at most four
    terms, with the tables of ``Torus(tau)``: exp(L) S from ``Torus._theta1_parts``.
    DomainError where |theta1| leaves the float range, as far off the real axis of a
    thin torus; its logarithm L + log S stays finite there.
    """
    torus = Torus(tau)
    scale, series = torus._theta1_parts(torus._centred(np.array([complex(z)])))
    return _exp_in_range(scale.item(), "theta1") * series.item()


def _exp_in_range(log_value: complex, what: str) -> complex:
    """cmath.exp(log_value); DomainError, naming ``what``, where it leaves the float range."""
    try:
        return cmath.exp(log_value)
    except OverflowError:
        raise DomainError(f"{what} outside the float range") from None


def theta1_log_derivative(z: complex, tau: complex) -> complex:
    """theta1'(z|tau) / theta1(z|tau), for any tau with Im tau > 0.

    ``Torus(tau)._log_derivative_sum`` at the one node z, over the support 0: the
    Fourier series on the reduced modulus and the reduction's linear term.  The pole:
    DiagonalSingularityError when z lies within the torus point tolerance of a lattice
    point, the coincidence test of ``green_kernel``.
    """
    torus, z = Torus(tau), complex(z)
    if torus.lattice_defect(z) < torus.point_tol:
        raise DiagonalSingularityError()
    return torus._log_derivative_sum(np.array([z]), ((0j, 1),)).item()


def green_kernel(curve: CurveModel, p, q) -> float:
    """Symmetric real Green kernel g(p, q) of the curve.

    The coincidence test for single pairs (``curve.kernel`` is the bare
    formula): DiagonalSingularityError below the curve's point tolerance,
    lattice equivalence included; DomainError at the sphere's infinity.
    """
    p, q = as_point(p), as_point(q)
    distance = curve.point_distance(p, q)
    if distance < curve.point_tol:
        raise DiagonalSingularityError()
    if distance == math.inf:
        raise DomainError("kernel undefined at infinity; only degree-zero divisor sums drop it")
    return curve.kernel(p, q)


def kernel_matrix(curve: CurveModel, left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel g(P_i, Q_j) over every pair of two point sequences.

    Returns ``(kernel, distance, defined)``, arrays of shape
    (len(left), len(right)): the kernel values, the curve distances
    ``point_distance(P_i, Q_j)`` and the mask of entries where the kernel is
    defined, all from one reduction per call (``curve._reduce_pairs``: on the
    torus the centring, from whose points the lattice distance is taken).  A
    pair that coincides (distance below the curve's point tolerance) or
    involves the sphere's point at infinity (infinite distance) is masked,
    never evaluated, and its kernel entry is 0; the defined entries are
    evaluated in one ``curve._kernel_values`` call on their reduced
    differences.  When ``left is right`` only the upper triangle is evaluated
    and mirrored, so the matrix is exactly symmetric.
    """
    symmetric = left is right
    left = [as_point(p) for p in left]
    right = left if symmetric else [as_point(q) for q in right]
    distance, reduced = curve._reduce_pairs(left, right)
    if symmetric:
        distance = np.triu(distance, 1)
        distance += distance.T
    defined = (distance >= curve.point_tol) & (distance < math.inf)
    kernel = np.zeros(distance.shape)
    evaluated = np.triu(defined, 1) if symmetric else defined
    kernel[evaluated] = curve._kernel_values(reduced[evaluated])
    if symmetric:
        kernel += kernel.T
    return kernel, distance, defined


def green_divisor(curve: CurveModel, d: "ComplexDivisor", z) -> complex:
    """Coefficient-weighted kernel sum sum_j n_j * g(z, P_j) of a degree-0 divisor.

    Complex-linear in the divisor coefficients, hence complex-valued for
    complex coefficients and real for real ones.  On the sphere, terms at
    infinity are dropped: the affine evaluation is the documented meaning
    of the sum for divisors containing the point at infinity.
    """
    if d.degree() != 0:
        raise DegreeZeroRequiredError()
    zp = as_point(z)
    if zp.at_infinity:
        raise DomainError("kernel undefined at infinity; evaluate at an affine point")
    items = d.support_items()
    kernel, distance, _ = kernel_matrix(curve, [zp], [point for point, _ in items])
    if (distance < curve.point_tol).any():
        raise DiagonalSingularityError()
    return complex(kernel[0] @ np.array([coeff for _, coeff in items], dtype=complex))


def abel_jacobi_sum(curve: CurveModel, d: "ComplexDivisor") -> complex:
    """Coefficient-weighted coordinate sum sum_P n_P * P on the torus.

    Uses the stored (fundamental-cell) representatives of the divisor's
    support; reduce the result mod the lattice with
    ``Torus.reduce_point`` / ``Torus.lattice_defect`` as needed.
    """
    if not isinstance(curve, Torus):
        raise TrivialJacobianError()
    return sum((coeff * point.z for point, coeff in d.support_items()), 0j)
