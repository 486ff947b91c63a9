"""Floating-point evaluation of the Hilbert map and sampled verification.

Nothing here defines truth: the generators and stratification are exact
integer data.  These routines corroborate them numerically -- rotation
invariance, homogeneity, orbit separation, and the closed-form image
relation for two weighted coordinates -- with explicit seeds so every run
reproduces.  The orbit test they rely on, `same_orbit`, is a finite exact
test over candidate angles, not a search.
"""

from __future__ import annotations

import cmath
import math
from random import Random
from typing import Callable, Sequence

from .action import ActionSpec
from .errors import LengthMismatch
from .invariants import (
    PART_IM,
    InvariantGenerator,
    hilbert_basis,
    realize_generators,
)

OrbitPoint = tuple[complex, ...]


def rotate(spec: ActionSpec, theta: float, p: Sequence[complex]) -> OrbitPoint:
    """Apply the circle element of angle theta: z_j -> e^(i alpha_j theta) z_j."""
    if len(p) != spec.m:
        raise LengthMismatch(f"point has {len(p)} coordinates, action has {spec.m}")
    return tuple(
        cmath.exp(1j * a * theta) * complex(z) for a, z in zip(spec.weights, p)
    )


def evaluate_hilbert_map(
    generators: Sequence[InvariantGenerator], p: Sequence[complex]
) -> tuple[float, ...]:
    """Evaluate each generator at the point, in list order.

    Each monomial is the product of z_j ** k_j and conj(z_j) ** kbar_j over
    its support, so a generator costs O(support * log k) at any degree:
    CPython's complex ** int powers by squaring up to exponent 100 and goes
    through exp/log above it, with a relative phase error of order k * eps
    there.  A monomial past the float range raises OverflowError from
    ``**``; sampled points have |z_j| < 1 and the homogeneity check keeps
    t ** degree <= 4 ** 16, so no check in this module reaches it.
    """
    point = tuple(complex(z) for z in p)
    conj = tuple(z.conjugate() for z in point)
    m = len(point)
    values = []
    for g in generators:
        e = g.exponents
        if e.m != m:
            raise LengthMismatch(f"generator expects {e.m} coordinates, point has {m}")
        w = 1 + 0j
        for z, zbar, k, kbar in zip(point, conj, e.holomorphic, e.antiholomorphic):
            if k:
                w *= z**k
            if kbar:
                w *= zbar**kbar
        values.append(w.imag if g.part == PART_IM else w.real)
    return tuple(values)


def same_orbit(
    spec: ActionSpec, z: Sequence[complex], w: Sequence[complex], tol: float
) -> bool:
    """Whether some rotation carries z onto w, within max-norm tol.

    A rotation that does must turn z's largest-modulus coordinate z_j, of
    weight a, onto w_j, so up to a small phase error its angle is one of
    the a candidates (arg w_j - arg z_j + 2 pi k) / a, k < a.  The test
    tries each: O(a * m) work and no ceiling on the weights.  It never
    accepts a pair that every rotation leaves farther apart than tol, and
    it accepts every pair that some rotation brings within
    tol / (1 + pi * max(weights) / a); anchoring on the largest modulus is
    what bounds that factor.
    """
    if not len(z) == len(w) == spec.m:
        raise LengthMismatch(f"points have {len(z)} and {len(w)} coordinates, action has {spec.m}")
    zs = tuple(complex(c) for c in z)
    ws = tuple(complex(c) for c in w)
    j = max(range(spec.m), key=lambda i: abs(zs[i]))
    a = spec.weights[j]
    turn = cmath.phase(ws[j]) - cmath.phase(zs[j])
    return any(
        all(
            abs(cmath.exp(1j * b * theta) * zc - wc) <= tol
            for b, zc, wc in zip(spec.weights, zs, ws)
        )
        for theta in ((turn + 2 * math.pi * k) / a for k in range(a))
    )


def check_m2_membership(
    alpha1: int, alpha2: int, y: Sequence[float], tol: float = 1e-9
) -> bool:
    """Membership test for the orbit-space image of two weighted coordinates.

    The image in R^4 is cut out by y1 >= 0, y2 >= 0 and
    y3^2 + y4^2 = y1^alpha2 * y2^alpha1; all comparisons are taken within
    tol (the equation relative to 1 + the monomial's magnitude).  A point
    with a non-finite coordinate is not in the image; where either side of
    the equation leaves the float range, the same test is decided on logarithms.
    The pair is checked as an ActionSpec: a non-integer or non-positive
    weight raises ValueError, and a common divisor raises NotEffective.
    """
    alpha1, alpha2 = ActionSpec(0, (alpha1, alpha2)).weights
    if len(y) != 4:
        raise ValueError(f"expected 4 image coordinates, got {len(y)}")
    y1, y2, y3, y4 = (float(v) for v in y)
    if not all(map(math.isfinite, (y1, y2, y3, y4))) or y1 < -tol or y2 < -tol:
        return False
    lhs = y3 * y3 + y4 * y4
    try:
        rhs = y1**alpha2 * y2**alpha1
    except OverflowError:
        rhs = math.inf
    if math.isinf(lhs) or math.isinf(rhs):
        return _m2_relation_on_logs(alpha1, alpha2, (y1, y2, y3, y4), tol)
    scale = 1.0 + abs(y1) ** alpha2 * abs(y2) ** alpha1
    return abs(lhs - rhs) <= tol * scale


def _m2_relation_on_logs(alpha1: int, alpha2: int, y: tuple[float, ...], tol: float) -> bool:
    """|lhs - rhs| <= tol * (1 + |rhs|) for lhs = y3^2 + y4^2 and
    rhs = y1^alpha2 * y2^alpha1, both read as logarithms of magnitudes and
    divided by e^top, the largest of lhs, |rhs| and 1, so that nothing overflows."""
    y1, y2, y3, y4 = y
    big, small = sorted((abs(y3), abs(y4)), reverse=True)
    log_lhs = 2 * math.log(big) + math.log1p((small / big) ** 2) if big else -math.inf
    log_rhs = alpha2 * math.log(abs(y1)) + alpha1 * math.log(abs(y2)) if y1 and y2 else -math.inf
    sign = -1.0 if (y1 < 0 and alpha2 % 2 == 1) != (y2 < 0 and alpha1 % 2 == 1) else 1.0
    top = max(log_lhs, log_rhs, 0.0)
    lhs, rhs = math.exp(log_lhs - top), sign * math.exp(log_rhs - top)
    return abs(lhs - rhs) <= tol * (math.exp(-top) + abs(rhs))


# ---------------------------------------------------------------------------
# Seeded property checks.  Each returns a report dict suitable for JSON-lines
# output: {"check", "seed", "trials", "failures", "max_err"}.
# ---------------------------------------------------------------------------


def _random_point(rng: Random, m: int, low: float = 0.0) -> OrbitPoint:
    """Moduli uniform in [low, 1), phases uniform in [0, 2 pi)."""
    return tuple(
        rng.uniform(low, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        for _ in range(m)
    )


def _gap(a: Sequence[float], b: Sequence[float]) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _sampled(
    name: str, trials: int, seed: int, trial_fn: Callable[[Random, int], tuple[float, bool]]
) -> dict:
    """Run trial_fn(rng, i) for i < trials on one seeded stream; each trial
    returns (err, ok), and the report keeps the largest err and counts the
    trials that were not ok.  A negative count raises ValueError, as no
    report could say what ran."""
    if trials < 0:
        raise ValueError(f"{name}: trials must be >= 0, got {trials}")
    rng = Random(seed)
    failures = 0
    max_err = 0.0
    for i in range(trials):
        err, ok = trial_fn(rng, i)
        max_err = max(max_err, err)
        failures += not ok
    return {
        "check": name,
        "seed": seed,
        "trials": trials,
        "failures": failures,
        "max_err": max_err,
    }


def check_invariance(
    spec: ActionSpec,
    generators: Sequence[InvariantGenerator],
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Image values must not move along orbits."""

    def trial(rng: Random, _: int) -> tuple[float, bool]:
        p = _random_point(rng, spec.m)
        theta = rng.uniform(0, 2 * math.pi)
        base = evaluate_hilbert_map(generators, p)
        moved = evaluate_hilbert_map(generators, rotate(spec, theta, p))
        scale = 1.0 + max((abs(v) for v in base), default=0.0)
        err = _gap(base, moved) / scale
        return err, err <= tol

    return _sampled("invariance", trials, seed, trial)


def check_homogeneity(
    spec: ActionSpec,
    generators: Sequence[InvariantGenerator],
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Each generator scales as t^degree under p -> t*p.

    Every monomial is homogeneous of its degree, so no generator list can
    fail this check; the defect it catches is an evaluator that drops
    exponents.  t is uniform in [1e-3, 4) ** (16 / D) with D = max(16, top
    generator degree), so t^degree stays within [1e-48, 4^16] and never
    overflows; up to degree 16 that is [1e-3, 4).
    """
    degrees = [g.degree for g in generators]
    span = 16 / max(16, max(degrees, default=1))
    low, high = 1e-3**span, 4.0**span

    def trial(rng: Random, _: int) -> tuple[float, bool]:
        p = _random_point(rng, spec.m)
        t = rng.uniform(low, high)
        base = evaluate_hilbert_map(generators, p)
        scaled = evaluate_hilbert_map(generators, tuple(t * z for z in p))
        err = 0.0
        for d, b, s in zip(degrees, base, scaled):
            expect = t**d * b
            err = max(err, abs(s - expect) / (1.0 + abs(expect)))
        return err, err <= tol

    return _sampled("homogeneity", trials, seed, trial)


def check_separation(
    spec: ActionSpec,
    generators: Sequence[InvariantGenerator],
    trials: int = 200,
    seed: int = 0,
) -> dict:
    """Points with (numerically) equal images must lie on one orbit.

    Even trials rotate a random point (the positive control: the images
    agree and the points share an orbit).  Odd trials pair points of equal
    moduli and independent phases, the pairs a map that misses some
    invariant cannot tell apart.  Their moduli lie in [low, 1) with
    low^D = sqrt(image_tol), D the top generator degree, so every generator
    has magnitude at least sqrt(image_tol) and the images of distinct
    orbits differ far above image_tol.  A trial fails when the images agree
    within image_tol but `same_orbit` puts the points on different orbits;
    max_err is the largest such image gap.  The tolerances are fixed:
    image_tol = 1e-12 on the max-norm image gap and 1e-6 for `same_orbit`,
    whatever tolerance the other checks of the suite use.
    """
    image_tol, orbit_tol = 1e-12, 1e-6
    low = image_tol ** (0.5 / max((g.degree for g in generators), default=1))

    def trial(rng: Random, i: int) -> tuple[float, bool]:
        if i % 2 == 0:
            z = _random_point(rng, spec.m)
            w = rotate(spec, rng.uniform(0, 2 * math.pi), z)
        else:
            z = _random_point(rng, spec.m, low)
            w = tuple(abs(c) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for c in z)
        gap = _gap(evaluate_hilbert_map(generators, z), evaluate_hilbert_map(generators, w))
        if gap > image_tol:
            return 0.0, True
        return gap, same_orbit(spec, z, w, orbit_tol)

    return _sampled("separation", trials, seed, trial)


def check_membership(
    spec: ActionSpec,
    generators: Sequence[InvariantGenerator],
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Sampled images satisfy the two-coordinate semi-algebraic relation."""
    if spec.m != 2:
        raise ValueError("membership relation is implemented for m = 2 only")
    a1, a2 = spec.weights

    def trial(rng: Random, _: int) -> tuple[float, bool]:
        y = evaluate_hilbert_map(generators, _random_point(rng, 2))
        rhs = y[0] ** a2 * y[1] ** a1
        err = abs(y[2] * y[2] + y[3] * y[3] - rhs) / (1.0 + abs(rhs))
        return err, check_m2_membership(a1, a2, y, tol)

    return _sampled("membership_m2", trials, seed, trial)


def run_property_suite(
    spec: ActionSpec,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> list[dict]:
    """Run every applicable sampled check for one action, one report each."""
    generators = realize_generators(hilbert_basis(spec))
    reports = [
        check_invariance(spec, generators, trials, seed, tol),
        check_homogeneity(spec, generators, trials, seed + 1, tol),
        check_separation(spec, generators, min(trials, 200), seed + 2),
    ]
    if spec.m == 2:
        reports.append(check_membership(spec, generators, trials, seed + 3, tol))
    return reports
