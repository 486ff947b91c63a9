"""Recover the weights of a linear circle action from its abstract
stratification diagram.

The input is deliberately thin: stratum dimensions, isotropy orders, and the
closure order.  No face data is consulted, so the recovery demonstrably uses
only what survives in the orbit space.  Each finite stratum corresponds to a
face of the weight simplex whose vertex count follows from its codimension;
subtracting the vertices already accounted for by strictly smaller strata
leaves the number of weights equal to that stratum's own order.
"""

from __future__ import annotations

import math

from .action import ActionSpec
from .errors import (
    CountMismatch,
    MalformedDiagram,
    NegativeMultiplicity,
    NoDistinguishedStratum,
    NotEffective,
    ParityError,
    TooManyWeights,
)
from .stratification import StratificationDiagram, Stratum, orbit_strata

MAX_RECOVERED_WEIGHTS = 10**6  # no list of weights is built past this m


def infer_dimensions(diagram: StratificationDiagram) -> tuple[int, int, int]:
    """Read (n, trivial_dim, m) off the diagram.

    The ambient representation dimension n is one more than the top
    stratum's dimension and must equal the diagram's ambient_dim, the
    trivial factor is the dimension of the infinite-order stratum, and m
    is half their difference.
    """
    infinite = [s for s in diagram.strata if s.is_distinguished]
    if len(infinite) != 1:
        raise NoDistinguishedStratum(
            f"expected exactly one infinite-order stratum, found {len(infinite)}"
        )
    tops = diagram.maximal_finite()
    if len(tops) != 1:
        raise MalformedDiagram(
            f"expected exactly one top stratum, found {len(tops)}"
        )
    n = tops[0].dim + 1
    if diagram.ambient_dim != n:
        raise MalformedDiagram(
            f"ambient_dim {diagram.ambient_dim} != top stratum dim + 1 = {n}"
        )
    trivial_dim = infinite[0].dim
    if n - trivial_dim <= 0:
        raise NoDistinguishedStratum(
            "top stratum does not sit above the distinguished stratum"
        )
    if (n - trivial_dim) % 2 != 0:
        raise ParityError(
            f"n - trivial_dim = {n - trivial_dim} is odd; "
            "not an orbit space of a linear circle action"
        )
    return n, trivial_dim, (n - trivial_dim) // 2


def recover_weights(diagram: StratificationDiagram) -> tuple[int, ...]:
    """Extract the weight multiset from an abstract diagram.

    For each finite stratum S of codimension c (relative to the top
    stratum), the simplex face it realizes has m - c/2 vertices.  Walking
    the strata from the most nested outward, the vertices not claimed by
    strictly smaller strata belong to S itself, each contributing one copy
    of S's isotropy order.  Diagrams that cannot have come from an
    effective linear circle action fail with a diagnostic naming the
    offending stratum.
    """
    n, trivial_dim, m = infer_dimensions(diagram)
    if m > MAX_RECOVERED_WEIGHTS:
        raise TooManyWeights(
            f"diagram claims m = {m} weights, past the bound of {MAX_RECOVERED_WEIGHTS}"
        )
    finite = diagram.finite_strata
    _validate_orders(diagram, finite)
    top_dim = n - 1

    vertices: dict[str, int] = {}
    for s in finite:
        codim = top_dim - s.dim
        if codim < 0:
            raise MalformedDiagram(f"stratum {s.id!r} lies above the top stratum")
        if codim % 2 != 0:
            raise ParityError(f"stratum {s.id!r} has odd codimension {codim}")
        count = m - codim // 2
        if count < 0:
            raise MalformedDiagram(
                f"stratum {s.id!r} has codimension {codim} exceeding 2m = {2 * m}"
            )
        vertices[s.id] = count

    finite_ids = {s.id for s in finite}
    own: dict[str, int] = {}
    in_progress: set[str] = set()

    def claim(stratum_id: str) -> int:
        if stratum_id in own:
            return own[stratum_id]
        if stratum_id in in_progress:
            raise MalformedDiagram(
                f"closure relation cycles through stratum {stratum_id!r}"
            )
        in_progress.add(stratum_id)
        nested = sum(
            claim(below) for below in diagram.strictly_below(stratum_id) & finite_ids
        )
        in_progress.discard(stratum_id)
        count = vertices[stratum_id] - nested
        if count < 0:
            raise NegativeMultiplicity(
                f"stratum {stratum_id!r} would carry {count} weights"
            )
        own[stratum_id] = count
        return count

    for s in finite:
        claim(s.id)

    if sum(own.values()) != m:
        raise CountMismatch(
            f"recovered {sum(own.values())} weights, expected m = {m}"
        )
    weights: list[int] = []
    for s in finite:
        weights.extend([int(s.order)] * own[s.id])
    weights.sort()
    if weights and math.gcd(*weights) != 1:
        raise NotEffective(
            f"recovered weights {weights} have gcd {math.gcd(*weights)} > 1"
        )
    return tuple(weights)


def _validate_orders(
    diagram: StratificationDiagram, finite: tuple[Stratum, ...]
) -> None:
    orders = [s.order for s in finite]
    if any(not isinstance(o, int) or o < 1 for o in orders):
        raise MalformedDiagram("finite strata must carry positive integer orders")
    if len(set(orders)) != len(orders):
        raise MalformedDiagram("finite strata must have pairwise distinct orders")
    by_id = {s.id: s for s in finite}
    for a, b in diagram.closure:
        if a in by_id and b in by_id:
            if by_id[a].order % by_id[b].order != 0:
                raise MalformedDiagram(
                    f"closure pair ({a!r}, {b!r}) violates order divisibility"
                )


def roundtrip(spec: ActionSpec) -> bool:
    """Stratify, serialize to the abstract wire format, recover, compare.

    The serialization step guarantees the recovery side never sees face
    data.  True iff the recovered weights equal the action's weights as a
    sorted multiset and the inferred trivial dimension matches.
    """
    diagram = StratificationDiagram.from_json(orbit_strata(spec).to_json())
    recovered = recover_weights(diagram)
    _, trivial_dim, _ = infer_dimensions(diagram)
    return recovered == tuple(sorted(spec.weights)) and trivial_dim == spec.trivial_dim
