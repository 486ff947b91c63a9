"""Orbit-type stratification of the orbit space of a weighted circle action.

The coordinate subsets of C^m partition it into invariant pieces; each
non-empty subset carries the gcd of its weights as stabilizer order.  Pieces
sharing one stabilizer order fuse into a single stratum of the orbit space,
so the strata are the gcd-closure of the weights, and closure of strata is
plain divisibility of the orders.  The fixed-point image is kept as a
distinguished stratum of infinite order below everything else.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, repeat

from .action import ActionSpec
from .errors import MalformedDiagram, TooManyFaces, UncertifiedDiagram

DISTINGUISHED_ID = "distinguished"


class _Infinite(float):
    """The type of INFINITE: a float inf that pickle and copy hand back as INFINITE itself."""

    def __reduce__(self):
        return "INFINITE"


INFINITE = _Infinite("inf")
MAX_FACE_TABLE_M = 16  # 65,535 rows; each further coordinate doubles the table


@dataclass(frozen=True)
class FaceClass:
    """One coordinate subset: its indices, stabilizer order, and codimension
    inside C^m."""

    indices: frozenset[int]
    stabilizer_order: int
    codim: int


@dataclass(frozen=True)
class Stratum:
    id: str
    order: int | float  # INFINITE marks the distinguished stratum
    dim: int

    @property
    def wire_order(self) -> int | str:
        """The order as the wire format spells it, "inf" for infinite."""
        return "inf" if self.order == INFINITE else self.order


@dataclass(frozen=True)
class StratificationDiagram:
    """Strata plus the strict closure relation, with JSON and DOT export.

    `closure` holds strict pairs (below, above); the partial order itself is
    the reflexive hull.  The wire format deliberately omits face data so
    that consumers of the JSON see only abstract strata.  The public constructor,
    and so `from_json`, holds a diagram to the wire format's rules: every order
    is an exact int or the INFINITE object itself, every dim and the
    ambient_dim an exact int, ids are distinct and closure pairs name known
    strata.  `orbit_strata` skips the checks.
    """

    ambient_dim: int
    strata: tuple[Stratum, ...]
    closure: frozenset[tuple[str, str]]

    def __post_init__(self):
        for s in self.strata:
            if s.order is not INFINITE:  # not ==: a JSON Infinity is no wire order
                _diagram_int(s.order, "order")
            _diagram_int(s.dim, "dim")
        _diagram_int(self.ambient_dim, "ambient_dim")
        ids = {s.id for s in self.strata}
        if len(ids) != len(self.strata):
            raise MalformedDiagram("duplicate stratum ids")
        unknown = [(a, b) for a, b in self.closure if a not in ids or b not in ids]
        if unknown:
            a, b = min(unknown)
            raise MalformedDiagram(f"closure pair ({a}, {b}) names unknown strata")

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "strata": [
                {"id": s.id, "order": s.wire_order, "dim": s.dim}
                for s in self.strata
            ],
            "closure": [[a, b] for a, b in sorted(self.closure)],
        }

    @classmethod
    def from_json(cls, data) -> "StratificationDiagram":
        """Parse the wire format; anything off it raises MalformedDiagram."""
        entries = data.get("strata") if isinstance(data, dict) else None
        closure = data.get("closure", []) if isinstance(data, dict) else None
        if not (
            isinstance(entries, list)
            and isinstance(closure, list)
            and all(isinstance(e, dict) and "id" in e for e in entries)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in closure)
        ):
            raise MalformedDiagram("expected strata [{id, order, dim}], closure [[below, above]]")
        strata = tuple(_trusted(
            Stratum,
            id=str(e["id"]),
            order=INFINITE if e.get("order") == "inf" else e.get("order"),
            dim=e.get("dim"),
        ) for e in entries)
        pairs = frozenset((str(a), str(b)) for a, b in closure)
        return cls(data.get("ambient_dim"), strata, pairs)

    def to_dot(self) -> str:
        lines = ["digraph stratification {"]
        for s in self.strata:
            label = _dot_string(f"{s.id} (order {s.wire_order}, dim {s.dim})")
            lines.append(f"  {_dot_string(s.id)} [label={label}];")
        for a, b in sorted(hasse_edges(self)):
            lines.append(f"  {_dot_string(a)} -> {_dot_string(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` from values known to be valid, unchecked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _diagram_int(value, name: str) -> None:
    """Refuse `value` with MalformedDiagram unless it is exactly an int:
    bools, floats and strings are never converted."""
    if type(value) is not int:
        raise MalformedDiagram(f"{name} must be an integer, got {value!r}")


def _dot_string(text: str) -> str:
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def face_table(spec: ActionSpec) -> list[FaceClass]:
    """All 2^m - 1 coordinate subsets with stabilizer order and codimension.

    Listed by decreasing subset size (codimension 0 first), lexicographic
    within a size, matching the usual tabulation.
    """
    if spec.m > MAX_FACE_TABLE_M:
        raise TooManyFaces(f"m = {spec.m} is over the face table's bound m = {MAX_FACE_TABLE_M}")
    rows = []
    for size in range(spec.m, 0, -1):
        for combo in combinations(range(1, spec.m + 1), size):
            order = math.gcd(*(spec.weights[i - 1] for i in combo))
            rows.append(FaceClass(frozenset(combo), order, 2 * (spec.m - size)))
    return rows


def _strata(spec: ActionSpec, within: set | None = None) -> tuple[dict, list[tuple[int, int]]]:
    """Finite strata as {order: dim} by increasing order; closure pairs (d, e), e < d, e | d.
    A gcd outside `within` (orders holding the weights, if given) raises before it joins."""
    counts = Counter(spec.weights)  # work over the distinct weights, not all m
    orders: set[int] = set()
    for w in counts:
        new = {w, *map(math.gcd, repeat(w), orders)}
        if within is not None and not new <= within:
            a, b = min(sorted((w, o)) for o in orders if math.gcd(w, o) not in within)
            g = math.gcd(a, b)
            raise UncertifiedDiagram(f"no stratum has order {g}, the gcd of {a} and {b}")
        orders |= new
    ranked = sorted(orders)
    pairs = [(d, e) for e, d in combinations(ranked, 2) if d % e == 0]
    size = {**dict.fromkeys(ranked, 0), **counts}  # size[e] = #{j : e divides w_j}
    for d, e in pairs:
        size[e] += counts.get(d, 0)  # not counts[d]: Counter.__missing__ runs in Python
    return {d: spec.trivial_dim - 1 + 2 * size[d] for d in ranked}, pairs


def orbit_strata(spec: ActionSpec) -> StratificationDiagram:
    """Build the stratification diagram of the orbit space from the weights.

    The stabilizer orders are the closure of the weights under pairwise gcd.
    The faces of order d have the unique maximal face {j : d divides w_j},
    so that stratum has dim t + 2 #{j : d divides w_j} - 1.  Between finite
    strata, stratum_d lies below stratum_e iff e divides d; the distinguished
    stratum lies below everything.  The diagram is valid by construction, so it
    is built without the checks that the public constructor and `from_json` make.
    """
    dims, pairs = _strata(spec)
    ids = {d: f"order:{d}" for d in dims}
    strata = [_trusted(Stratum, id=ids[d], order=d, dim=dim) for d, dim in dims.items()]
    strata.append(_trusted(Stratum, id=DISTINGUISHED_ID, order=INFINITE, dim=spec.trivial_dim))
    closure = [*zip(repeat(DISTINGUISHED_ID), ids.values()), *((ids[d], ids[e]) for d, e in pairs)]
    return _trusted(
        StratificationDiagram, ambient_dim=spec.n, strata=tuple(strata), closure=frozenset(closure)
    )


def diagram_difference(a: StratificationDiagram, b: StratificationDiagram) -> str | None:
    """The first way two diagrams differ as labelled posets, or None.

    Strata are matched by order, since wire ids are arbitrary: ambient_dim,
    the sorted (order, dim) lists and the sets of closure pairs read as
    pairs of orders must agree.
    """
    return _difference(_labels(a), _labels(b))


def _difference(a: tuple[int, list, set], b: tuple[int, list, set]) -> str | None:
    if a[0] != b[0]:
        return f"ambient_dim {a[0]} != {b[0]}"
    for what, left, right in zip(("stratum (order, dim)", "closure pair of orders"), a[1:], b[1:]):
        if left != right:
            extra = Counter(left) - Counter(right)
            side, extra = ("first", extra) if extra else ("second", Counter(right) - Counter(left))
            return f"only the {side} diagram has the {what} {min(extra)}"
    return None


def _labels(d: StratificationDiagram) -> tuple[int, list, set]:
    order = {s.id: s.order for s in d.strata}
    strata = sorted((s.order, s.dim) for s in d.strata)
    return d.ambient_dim, strata, {(order[x], order[y]) for x, y in d.closure}


def _certify(diagram: StratificationDiagram, spec: ActionSpec, within: set | None = None) -> None:
    """Refuse `diagram` unless it is orbit_strata(spec)'s, which is not built.  Both refusals
    of the certificate raise UncertifiedDiagram here: a gcd outside `within` (as in _strata),
    and the first difference that diagram_difference would name."""
    dims, pairs = _strata(spec, within)
    closure = {*zip(repeat(INFINITE), dims), *pairs}
    labels = spec.n, [*dims.items(), (INFINITE, spec.trivial_dim)], closure
    difference = _difference(_labels(diagram), labels)
    if difference is not None:
        raise UncertifiedDiagram(
            f"this diagram (first) differs from its recovered action's (second): {difference}"
        )


def hasse_edges(diagram: StratificationDiagram) -> set[tuple[str, str]]:
    """Closure pairs (below, above) of finite strata with none strictly between."""
    finite_ids = {s.id for s in diagram.strata if s.order != INFINITE}
    above, below = ({i: set() for i in finite_ids} for _ in range(2))
    for a, b in diagram.closure:
        if a in finite_ids and b in finite_ids:
            above[a].add(b)
            below[b].add(a)
    return {(a, b) for a, up in above.items() for b in up if up.isdisjoint(below[b])}
