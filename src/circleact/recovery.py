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

from .action import ActionSpec
from .errors import (
    CountMismatch,
    MalformedDiagram,
    NegativeMultiplicity,
    NoDistinguishedStratum,
    ParityError,
    TooManyWeights,
)
from .stratification import INFINITE, StratificationDiagram, _certify, orbit_strata

MAX_RECOVERED_WEIGHTS = 10**6  # no list of weights is built past this m


def recover_weights(diagram: StratificationDiagram) -> tuple[int, ...]:
    """Extract the weight multiset from an abstract diagram.

    The ambient dimension n is one more than the top stratum's dimension and
    must equal the diagram's ambient_dim, the trivial dimension t is the
    infinite-order stratum's, and m = (n - t) / 2.  For each finite stratum
    S of codimension c (relative to the top stratum), the simplex face it
    realizes has m - c/2 vertices.  The vertices not claimed by strictly
    smaller strata belong to S itself, each contributing one copy of S's
    isotropy order.  In a diagram of an action every stratum strictly below
    S has a proper multiple of S's order, so one pass by decreasing order
    counts them before S.  The recovered action's strata are then computed
    on orders, their gcd closure kept inside the input's orders, and
    compared with the input; a gcd outside those orders or any difference
    raises UncertifiedDiagram (stratification._certify): a diagram is
    accepted exactly when some effective linear circle action produces it.
    """
    finite, infinite = [], []
    for s in diagram.strata:
        (infinite if s.order == INFINITE else finite).append(s)
    if len(infinite) != 1:
        raise NoDistinguishedStratum(
            f"expected exactly one infinite-order stratum, found {len(infinite)}"
        )
    below_of = {s.id: set() for s in diagram.strata}  # the ids that the closure puts below id
    for a, b in diagram.closure:
        below_of[b].add(a)
    lower = set().union(*[below_of[s.id] for s in finite])  # self-pairs bar a top too
    tops = [s for s in finite if s.id not in lower]
    if len(tops) != 1:
        raise MalformedDiagram(f"expected exactly one top stratum, found {len(tops)}")
    n = tops[0].dim + 1
    if diagram.ambient_dim != n:
        raise MalformedDiagram(f"ambient_dim {diagram.ambient_dim} != top stratum dim + 1 = {n}")
    trivial_dim = infinite[0].dim
    if trivial_dim < 0:
        raise MalformedDiagram(f"distinguished stratum has negative dim {trivial_dim}")
    if n - trivial_dim <= 0:
        raise NoDistinguishedStratum("top stratum does not sit above the distinguished stratum")
    if (n - trivial_dim) % 2 != 0:
        raise ParityError(
            f"n - trivial_dim = {n - trivial_dim} is odd; "
            "not an orbit space of a linear circle action"
        )
    m = (n - trivial_dim) // 2
    if m > MAX_RECOVERED_WEIGHTS:
        raise TooManyWeights(
            f"diagram claims m = {m} weights, past the bound of {MAX_RECOVERED_WEIGHTS}"
        )
    if any(s.order < 1 for s in finite):
        raise MalformedDiagram("finite strata must carry positive integer orders")

    ranked = sorted(finite, key=lambda s: s.order)
    own = {infinite[0].id: 0}  # the fixed points carry no weight
    for s in reversed(ranked):
        codim = n - 1 - s.dim
        if codim % 2 != 0:
            raise ParityError(f"stratum {s.id!r} has odd codimension {codim}")
        below = below_of[s.id]
        try:
            count = m - codim // 2 - sum(map(own.__getitem__, below))
        except KeyError:  # a stratum below s is not yet counted
            why = f"{min(below - own.keys())!r} lies below {s.id!r} without a larger order"
            raise MalformedDiagram(why) from None
        if count < 0:
            raise NegativeMultiplicity(f"stratum {s.id!r} would carry {count} weights")
        own[s.id] = count

    if sum(own.values()) != m:
        raise CountMismatch(f"recovered {sum(own.values())} weights, expected m = {m}")
    weights: list[int] = []
    for s in ranked:
        weights += [s.order] * own[s.id]
    # ActionSpec raises NotEffective when the weights share a divisor.
    spec = ActionSpec(trivial_dim, tuple(weights))
    _certify(diagram, spec, {s.order for s in finite})
    return spec.weights


def roundtrip(spec: ActionSpec) -> bool:
    """Stratify, serialize to the abstract wire format, recover, compare.

    The serialization step checks that the wire format round-trips: the
    recovery side reads only what the JSON carries.  True iff the recovered
    weights equal the action's weights as a sorted multiset and the trivial
    dimension n - 2m of the certified diagram matches.
    """
    diagram = StratificationDiagram.from_json(orbit_strata(spec).to_json())
    recovered = recover_weights(diagram)
    trivial_dim = diagram.ambient_dim - 2 * len(recovered)
    return recovered == tuple(sorted(spec.weights)) and trivial_dim == spec.trivial_dim
