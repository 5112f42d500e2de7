"""Seeded operation pools for the four workloads, with their expected values.

A pool is plain JSON data: numbers, literals and command lines.  The worker
process turns it into divpair objects through the public constructors, so
generating it (and computing every expected value, with reference.py and
math only) stays out of the timed set-up.  The same seed gives the same
pool.  Each pool has a fixed shape: its size, its instance sizes and the
strata its moduli are drawn from do not depend on the seed, only the draws
inside them do, so every seed sees the same mix of work.  The selftest pool
is a fixed list of suite seeds, which the seed only rotates.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

import reference

WORKLOADS = ("pairing-torus", "certificate", "cli", "selftest")

# pairing-torus: 25 marked tori, Im(tau) at the midpoints of 25 log-uniform
# strata; n (marks per divisor) cycles through N_VALUES so that each group
# of five strata holds every n once.
PAIRING_POOL = 25
N_VALUES = (24, 26, 28, 30, 32)
IM_TAU_RANGE = (0.1, 1.6)
MIN_MARK_DISTANCE = 0.01
EXPONENT_LIMIT = 200.0  # keeps exp(exponent) far inside float range

CERTIFICATE_POOL = 20  # half principal, half shifted off the lattice
SHIFT_RANGE = (0.05, 0.2)
MIN_CLEARANCE = 0.08  # contour clearance; keeps the quadrature at its base panel count
MIN_POINT_DISTANCE = 0.1

# A fixed list of 25 suite seeds (the benchmark seed only rotates it): the
# cost of run_selftest varies by about 7% from one suite seed to the next,
# which a seeded draw of 25 would carry into every figure.  About 0.1-0.15 s
# per operation, so that a 20-s run holds five or more rounds.
SELFTEST_POOL = 25
SELFTEST_CASES = 10

# Torus class requests whose inputs do not depend on the seed.  The first
# and third emit a literal in exponent notation that the grammar rejects
# (format_complex prints e.g. "8.855005090632775e-18-3.1415926535897882i"),
# so every round of the cli pool fails exactly these two operations.
FIXED_TORUS_CLASS = (
    ("i", "1@0.25,-1@0.75", False),
    ("0.5+0.866i", "1@0.2+0.1i,-1@0.6+0.5i", False),
    ("0.1+1.2i", "2@0.3+0.3i,-1@0.6+0.6i,-1@0", True),
)
CONFIG_PATH = ".perfbench_out/momenta.json"
# Seeded cli inputs whose emitted values fall below this are redrawn: the
# report's 17-digit format switches to exponent notation below 1e-4.
LITERAL_FLOOR = 1e-3


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}:{workload}")


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One draw from each of `count` equal strata of [lo, hi], in stratum order."""
    return [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]


def _log_midpoints(count: int, lo: float, hi: float) -> list[float]:
    """Midpoints of `count` equal strata of [lo, hi] on a log scale."""
    return [lo * (hi / lo) ** ((k + 0.5) / count) for k in range(count)]


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _gaussian_rational(rng: random.Random) -> tuple[Fraction, Fraction]:
    def part():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return part(), part()


def _zero_sum_gaussian(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    coeffs = [_gaussian_rational(rng) for _ in range(count - 1)]
    last = (-sum(c[0] for c in coeffs), -sum(c[1] for c in coeffs))
    return coeffs + [last]


def _gr_json(c: tuple[Fraction, Fraction]) -> list[str]:
    return [str(c[0]), str(c[1])]


def _gr_complex(c: tuple[Fraction, Fraction]) -> complex:
    return complex(float(c[0]), float(c[1]))


def _unit_vector(rng: random.Random, dim: int = 13) -> list[complex]:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c / norm for c in v]


def _momenta(rng: random.Random, count: int) -> list[list[complex]]:
    """`count` (even) unit momenta in C^13: count/2 vectors and their negatives, shuffled.

    Conservation holds exactly in floating point, since every component
    cancels against its own negation.
    """
    half = [_unit_vector(rng) for _ in range(count // 2)]
    rows = half + [[-c for c in v] for v in half]
    rng.shuffle(rows)
    return rows


def _torus_points(rng: random.Random, tau: complex, count: int, min_distance: float):
    """Points a + b*tau with a, b inside (0, 1), pairwise lattice distance >= min_distance."""
    points: list[complex] = []
    while len(points) < count:
        z = complex(rng.uniform(0.001, 0.999)) + rng.uniform(0.001, 0.999) * tau
        if all(reference.lattice_distance(z - p, tau) >= min_distance for p in points):
            points.append(z)
    return points


def _pairing_instance(rng: random.Random, n: int, im_tau: float) -> dict:
    while True:
        tau = complex(rng.uniform(-1.0, 1.0), im_tau)
        marks = _torus_points(rng, tau, 2 * n, MIN_MARK_DISTANCE)
        c1 = _zero_sum_gaussian(rng, n)
        c2 = _zero_sum_gaussian(rng, n)
        momenta = _momenta(rng, 2 * n)
        with np.errstate(divide="ignore"):
            kernel = reference.torus_kernel(marks, marks, tau)
        hermitian, scale = reference.contract(
            [_gr_complex(c) for c in c1], [_gr_complex(c) for c in c2], kernel[:n, n:]
        )
        string_exp, string_scale = reference.string_exponent(momenta, kernel)
        if abs(hermitian.real) < EXPONENT_LIMIT and abs(string_exp) < EXPONENT_LIMIT:
            break
    return {
        "tau": _pair(tau),
        "n": n,
        "marks": [_pair(z) for z in marks],
        "c1": [_gr_json(c) for c in c1],
        "c2": [_gr_json(c) for c in c2],
        "momenta": [[_pair(c) for c in row] for row in momenta],
        "expect": {
            "hermitian": _pair(hermitian),
            "scale": scale,
            "string_exponent": string_exp,
            "string_scale": string_scale,
        },
    }


def pairing_pool(seed: int) -> list[dict]:
    rng = _rng(seed, "pairing-torus")
    # Im(tau) sets the theta product's length, so it is fixed per slot; the
    # seed draws Re(tau), the marks, the coefficients and the momenta.
    im_taus = _log_midpoints(PAIRING_POOL, *IM_TAU_RANGE)
    return [
        _pairing_instance(rng, N_VALUES[(3 * k) % len(N_VALUES)], im_tau)
        for k, im_tau in enumerate(im_taus)
    ]


def _seam_clearance(coords: list[float]) -> float:
    """Half the gap between the largest coordinate and the smallest plus one."""
    return (1.0 - (max(coords) - min(coords))) / 2.0


def _reduce(z: complex, tau: complex) -> tuple[complex, float, float]:
    """Representative in the fundamental cell and its lattice coordinates."""
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    a0, b0 = a - math.floor(a), b - math.floor(b)
    return complex(a0) + b0 * tau, a0, b0


def _certificate_instance(rng: random.Random, tau: complex, principal: bool) -> dict:
    while True:
        while True:
            n = [rng.choice((-2, -1, 1, 2)) for _ in range(3)] + [rng.choice((-1, 1))]
            if sum(n[:3]) == -n[3]:
                break
        free = [complex(rng.random()) + rng.random() * tau for _ in range(3)]
        shift = 0.0 if principal else rng.uniform(*SHIFT_RANGE)
        last = -n[3] * sum(k * p for k, p in zip(n, free))
        last += shift * cmath.exp(2j * math.pi * rng.random())
        reduced = [_reduce(p, tau) for p in free + [last]]
        points = [r[0] for r in reduced]
        separated = all(
            reference.lattice_distance(points[i] - points[j], tau) >= MIN_POINT_DISTANCE
            for i in range(4)
            for j in range(i)
        )
        clear = min(
            _seam_clearance([r[1] for r in reduced]), _seam_clearance([r[2] for r in reduced])
        )
        if separated and clear >= MIN_CLEARANCE:
            break
    return {
        "tau": _pair(tau),
        "points": [_pair(p) for p in points],
        "coeffs": n,
        "principal": principal,
        "shift": shift,
    }


def certificate_pool(seed: int) -> list[dict]:
    """Moduli in the fundamental domain |Re tau| <= 1/2, |tau| >= 1, Im tau <= 1.6."""
    rng = _rng(seed, "certificate")
    re_taus = _strata(rng, CERTIFICATE_POOL, -0.5, 0.5)
    heights = _strata(rng, CERTIFICATE_POOL, 0.0, 1.0)
    rng.shuffle(heights)
    pool = []
    for k, (re, h) in enumerate(zip(re_taus, heights)):
        lo = math.sqrt(1.0 - re * re)
        tau = complex(re, lo + h * (1.6 - lo))
        pool.append(_certificate_instance(rng, tau, principal=k % 2 == 0))
    return pool


# --- cli ---------------------------------------------------------------------


def _literal(rng: random.Random, lo: float, hi: float) -> tuple[float, str]:
    """A decimal with three places in [lo, hi], zero or at least 0.01 in size."""
    while True:
        milli = rng.randint(round(lo * 1000), round(hi * 1000))
        if milli == 0 or abs(milli) >= 10:
            return milli / 1000, f"{milli / 1000:.3f}"


def _complex_literal(rng: random.Random, lo: float, hi: float) -> tuple[complex, str]:
    re, re_text = _literal(rng, lo, hi)
    im, im_text = _literal(rng, lo, hi)
    sign = "" if im_text.startswith("-") else "+"
    return complex(re, im), f"{re_text}{sign}{im_text}i"


def _sphere_points(rng: random.Random, count: int, min_gap: float = 0.3):
    points: list[tuple[complex, str]] = []
    while len(points) < count:
        z, text = _complex_literal(rng, -2.0, 2.0)
        if all(abs(z - p) >= min_gap for p, _ in points):
            points.append((z, text))
    return points


def _zero_sum_integers(rng: random.Random, count: int) -> list[int]:
    while True:
        w = [rng.choice((-2, -1, 1, 2)) for _ in range(count - 1)]
        w.append(-sum(w))
        if w[-1] != 0 and abs(w[-1]) <= 3:
            return w


def _divisor_literal(coeffs, point_texts) -> str:
    return ",".join(f"{c}@{t}" for c, t in zip(coeffs, point_texts))


def _tiny(x: float) -> bool:
    """Nonzero but small enough that a 17-digit rendering would use an exponent."""
    return x != 0 and abs(x) < LITERAL_FLOOR


def _green_sphere(rng: random.Random) -> dict:
    while True:
        pts = _sphere_points(rng, 4)
        at, at_text = pts.pop()
        w = _zero_sum_integers(rng, 3)
        value = sum(k * reference.sphere_kernel(at, p) for k, (p, _) in zip(w, pts))
        if not _tiny(value) and value != 0:
            break
    divisor = _divisor_literal(w, [t for _, t in pts])
    return {
        "kind": "green-sphere",
        "argv": ["green", "--curve=sphere", f"--divisor={divisor}", f"--at={at_text}"],
        "expect": {"value": value},
    }


def _green_torus(rng: random.Random) -> dict:
    while True:
        re, re_text = _literal(rng, -0.45, 0.45)
        im, im_text = _literal(rng, 0.8, 1.6)
        tau = complex(re, im)
        tau_text = f"{re_text}+{im_text}i"
        pts = []
        while len(pts) < 4:
            # inside the fundamental cell, so the library stores the point unchanged
            z, text = _complex_literal(rng, 0.0, 1.0)
            b = z.imag / tau.imag
            a = z.real - b * tau.real
            if 0.02 < a < 0.98 and 0.02 < b < 0.98 and all(reference.lattice_distance(z - p, tau) >= 0.1 for p, _ in pts):
                pts.append((z, text))
        at, at_text = pts.pop()
        w = _zero_sum_integers(rng, 3)
        kernel = reference.torus_kernel([at], [p for p, _ in pts], tau)[0]
        value = float(sum(k * g for k, g in zip(w, kernel)))
        if not _tiny(value) and value != 0:
            break
    divisor = _divisor_literal(w, [t for _, t in pts])
    return {
        "kind": "green-torus",
        "argv": [
            "green", "--curve=torus", f"--tau={tau_text}", f"--divisor={divisor}", f"--at={at_text}",
        ],
        "expect": {"value": value},
    }


def _sphere_pairing(rng: random.Random) -> dict:
    while True:
        pts = _sphere_points(rng, 6)
        w1, w2 = _zero_sum_integers(rng, 3), _zero_sum_integers(rng, 3)
        exponent = sum(
            a * b * reference.sphere_kernel(p, q)
            for a, (p, _) in zip(w1, pts[:3])
            for b, (q, _) in zip(w2, pts[3:])
        )
        if not _tiny(exponent) and exponent != 0 and abs(exponent) < EXPONENT_LIMIT:
            break
    d1 = _divisor_literal(w1, [t for _, t in pts[:3]])
    d2 = _divisor_literal(w2, [t for _, t in pts[3:]])
    return {
        "kind": "pairing-sphere",
        "argv": ["pairing", "--curve=sphere", f"--d1={d1}", f"--d2={d2}", "--formula=all"],
        "expect": {"exponent": exponent, "hermitian": [exponent, 0.0]},
    }


def _marked_pairing(rng: random.Random) -> dict:
    while True:
        pts = _sphere_points(rng, 4)
        c1, c2 = _zero_sum_gaussian(rng, 2), _zero_sum_gaussian(rng, 2)
        hermitian = sum(
            _gr_complex(a) * _gr_complex(b).conjugate() * reference.sphere_kernel(p, q)
            for a, (p, _) in zip(c1, pts[:2])
            for b, (q, _) in zip(c2, pts[2:])
        )
        parts = (hermitian.real, hermitian.imag)
        if not any(_tiny(x) for x in parts) and abs(hermitian.real) < EXPONENT_LIMIT:
            break

    def coeff(c):
        re, im = c
        sign = "+" if im >= 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    d1 = ",".join(f"{coeff(c)}@Q{k + 1}" for k, c in enumerate(c1))
    d2 = ",".join(f"{coeff(c)}@Q{k + 3}" for k, c in enumerate(c2))
    marks = ",".join(t for _, t in pts)
    return {
        "kind": "pairing-marked",
        "argv": [
            "pairing", "--curve=sphere", f"--marks={marks}", f"--d1={d1}", f"--d2={d2}",
            "--formula=all",
        ],
        "expect": {"exponent": hermitian.real, "hermitian": _pair(hermitian)},
    }


def _reciprocity(rng: random.Random) -> dict:
    pts = [t for _, t in _sphere_points(rng, 6)]
    return {
        "kind": "reciprocity",
        "argv": [
            "reciprocity", "--curve=sphere",
            f"--f=zeros:{pts[0]},{pts[1]};poles:{pts[2]},{pts[3]}",
            f"--g=zeros:{pts[4]};poles:{pts[5]}",
        ],
        "expect": {},
    }


def _sphere_class(rng: random.Random) -> dict:
    pts = _sphere_points(rng, 3)
    w = [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
    return {
        "kind": "class-sphere",
        "argv": ["class", "--curve=sphere", f"--divisor={_divisor_literal(w, [t for _, t in pts])}"],
        "expect": {"degree": sum(w), "principal": sum(w) == 0},
    }


def _exact_decimal(x: float) -> str:
    """Fixed-point decimal that parses back to exactly x (no exponent notation)."""
    f = Fraction(x)
    digits = 0
    while (f * 10**digits).denominator != 1:
        digits += 1
    scaled = abs(f.numerator * 10**digits // f.denominator)
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if x < 0 else ""
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def _string_factor(rng: random.Random) -> tuple[dict, dict]:
    while True:
        pts = _sphere_points(rng, 6)
        momenta = _momenta(rng, 6)
        kernel = [[reference.sphere_kernel(p, q) if i != j else 0.0
                   for j, (q, _) in enumerate(pts)] for i, (p, _) in enumerate(pts)]
        exponent, _ = reference.string_exponent(momenta, kernel)
        if abs(exponent) < EXPONENT_LIMIT:
            break

    def literal(c: complex) -> str:
        im = _exact_decimal(c.imag)
        sign = "" if im.startswith("-") else "+"
        return f"{_exact_decimal(c.real)}{sign}{im}i"

    config = {
        "curve": "sphere",
        "marks": [t for _, t in pts],
        "momenta": [[literal(c) for c in row] for row in momenta],
    }
    item = {
        "kind": "string-factor",
        "argv": ["string-factor", f"--config={CONFIG_PATH}"],
        "expect": {"exponent": exponent},
    }
    return item, config


def cli_pool(seed: int) -> tuple[list[dict], dict]:
    rng = _rng(seed, "cli")
    item, config = _string_factor(rng)
    pool = [
        {
            "kind": "anchor",
            "argv": ["pairing", "--curve=sphere", "--d1=1@1,-1@-1", "--d2=1@2,-1@-2", "--formula=all"],
            "expect": {"exponent": math.log(1 / 9), "hermitian": [math.log(1 / 9), 0.0], "norm": 1 / 9},
        },
        _green_sphere(rng),
        _green_torus(rng),
        _sphere_pairing(rng),
        _marked_pairing(rng),
        _reciprocity(rng),
        _sphere_class(rng),
        item,
    ]
    for tau, divisor, principal in FIXED_TORUS_CLASS:
        pool.append({
            "kind": "class-torus",
            "argv": ["class", "--curve=torus", f"--tau={tau}", f"--divisor={divisor}"],
            "expect": {"degree": 0, "principal": principal},
        })
    return pool, config


def selftest_pool(seed: int) -> list[dict]:
    rng = random.Random("selftest suite seeds")
    seeds = [rng.randrange(2**31) for _ in range(SELFTEST_POOL)]
    start = seed % SELFTEST_POOL
    return [{"seed": s, "cases": SELFTEST_CASES} for s in seeds[start:] + seeds[:start]]


def build(workload: str, seed: int) -> dict:
    """The pool of one workload as JSON-serializable data."""
    data: dict = {"workload": workload, "seed": seed}
    if workload == "pairing-torus":
        data["items"] = pairing_pool(seed)
    elif workload == "certificate":
        data["items"] = certificate_pool(seed)
    elif workload == "cli":
        data["items"], data["config"] = cli_pool(seed)
        data["config_path"] = CONFIG_PATH
    elif workload == "selftest":
        data["items"] = selftest_pool(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return data
