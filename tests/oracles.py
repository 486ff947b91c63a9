"""Oracles for the Hilbert-basis and acceptance tests: the rotation weight
of a monomial, the |z_j|^2 exponent vectors, conjugation, componentwise
domination, an exhaustive decomposition of an invariant exponent vector
over a basis, and enumerations of effective weight multisets and of the
invariant exponent vectors up to a degree.

They check the library's answers and are not part of it.  The name does not
match ``test_*.py``, so pytest collects nothing here; the test modules in
this directory import it as ``oracles``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import ge, sub

from circleact import ActionSpec, ExponentVector, LengthMismatch


class NotInvariant(Exception):
    """decompose was given an exponent vector of nonzero rotation weight."""


def key(e: ExponentVector) -> tuple[int, ...]:
    """Concatenated exponent tuple k + kbar; the canonical sort key."""
    return e.holomorphic + e.antiholomorphic


def conjugate(e: ExponentVector) -> ExponentVector:
    """Swap holomorphic and antiholomorphic exponents."""
    return ExponentVector(e.antiholomorphic, e.holomorphic)


def abs2_exponent(m: int, j: int) -> ExponentVector:
    """Exponent vector of |z_j|^2 (1-based j) in m complex coordinates."""
    unit = tuple(1 if i == j - 1 else 0 for i in range(m))
    return ExponentVector(unit, unit)


def _check_length(spec: ActionSpec, e: ExponentVector) -> None:
    if e.m != spec.m:
        raise LengthMismatch(f"exponent vector has {e.m} coordinates, action has {spec.m}")


def circle_weight(spec: ActionSpec, e: ExponentVector) -> int:
    """Rotation weight sum_j alpha_j * (k_j - kbar_j) of the monomial."""
    _check_length(spec, e)
    return sum(
        a * (k - kbar)
        for a, k, kbar in zip(spec.weights, e.holomorphic, e.antiholomorphic)
    )


def is_invariant_exponent(spec: ActionSpec, e: ExponentVector) -> bool:
    """True iff the monomial with these exponents is circle-invariant."""
    return circle_weight(spec, e) == 0


def dominates(e: ExponentVector, f: ExponentVector) -> bool:
    """Componentwise >= on the exponents of e and f."""
    return all(map(ge, key(e), key(f)))


@lru_cache(maxsize=8)
def _search_order(basis: frozenset[ExponentVector]):
    """What decompose needs of a basis, computed once per basis: the set of
    coordinate counts of its elements, the nonzero elements by decreasing
    degree, and their concatenated exponent tuples.
    """
    lengths = frozenset(b.m for b in basis)
    elems = tuple(sorted((b for b in basis if b.degree), key=lambda b: (-b.degree, key(b))))
    return lengths, elems, tuple(map(key, elems))


def decompose(
    spec: ActionSpec,
    e: ExponentVector,
    basis: frozenset[ExponentVector],
) -> Counter | None:
    """Write an invariant exponent vector as a sum of basis elements.

    Exhaustive depth-first search, so a None result means no decomposition
    exists.  Returns a Counter mapping basis elements to multiplicities
    (empty for the zero vector).  Raises :class:`NotInvariant` if `e` fails
    the invariance criterion, and LengthMismatch if `e` or a basis element
    has another number of coordinates than `spec`.

    A zero basis element never changes what remains, so the search leaves
    it out.  The `dead` memo bounds the work: the search fails at most once
    from each (remaining, start) pair, where remaining <= e componentwise
    and start indexes the basis, so there are at most
    |basis| * prod_j (k_j + 1)(kbar_j + 1) such pairs, and each scans the
    basis once.
    """
    rotation = circle_weight(spec, e)  # checks e's length
    if rotation != 0:
        raise NotInvariant(f"rotation weight {rotation} != 0")
    lengths, elems, flats = _search_order(frozenset(basis))
    if lengths - {spec.m}:
        for b in basis:
            _check_length(spec, b)

    # (remaining, start) pairs from which no decomposition exists.
    dead: set[tuple[tuple[int, ...], int]] = set()
    # Frames (remaining, start, next index to try); a frame below the top
    # has taken basis element next - 1 to reach the frame above it.
    stack = [(key(e), 0, 0)]
    while stack:
        remaining, start, idx = stack.pop()
        if not any(remaining):
            return Counter(elems[i - 1] for _, _, i in stack)
        for idx in range(idx, len(flats)):
            b = flats[idx]
            if all(map(ge, remaining, b)):
                rest = tuple(map(sub, remaining, b))
                if (rest, idx) not in dead:
                    stack += (remaining, start, idx + 1), (rest, idx, idx)
                    break
        else:
            dead.add((remaining, start))
    return None


def effective_multisets(max_m: int, max_weight: int):
    """Every sorted weight tuple of length <= max_m, entries <= max_weight, gcd 1."""
    for m in range(1, max_m + 1):
        for combo in combinations_with_replacement(range(1, max_weight + 1), m):
            if math.gcd(*combo) == 1:
                yield combo


def bounded_tuples(width: int, total: int):
    """Every tuple of `width` non-negative ints with sum <= total."""
    if width == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in bounded_tuples(width - 1, total - head):
            yield (head,) + rest


def invariant_vectors_up_to(weights: tuple[int, ...], max_degree: int) -> list[ExponentVector]:
    """Every invariant exponent vector of total degree <= max_degree."""
    buckets = {}
    for k in bounded_tuples(len(weights), max_degree):
        buckets.setdefault(sum(a * x for a, x in zip(weights, k)), []).append(k)
    found = []
    for ks in buckets.values():
        for k in ks:
            for kbar in ks:
                if any(k + kbar) and sum(k) + sum(kbar) <= max_degree:
                    found.append(ExponentVector(k, kbar))
    return found
