"""Normal form of an effective linear circle action and its gcd arithmetic.

A linear circle action on R^n splits, after an equivariant change of
coordinates, into a factor on which the circle acts trivially and m complex
lines rotated at integer speeds (the weights).  Everything downstream keys
off the weights: the stabilizer of a point supported on a coordinate subset
is the cyclic group whose order is the gcd of the weights over that subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Iterable

from .errors import IndexOutOfRange, NotEffective

INFINITE = math.inf


@dataclass(frozen=True)
class ActionSpec:
    """An effective linear circle action in normal form.

    `trivial_dim` is the dimension of the fixed factor; `weights` are the
    rotation speeds of the m complex coordinates.  Weights must be positive
    with overall gcd 1 (use :func:`canonicalize` to normalize raw input).
    Weight order is immaterial to the geometry; it is preserved here so that
    permutation invariance can be tested, and `canonicalize` sorts.
    """

    trivial_dim: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", integers(self.weights, "weights"))
        try:
            object.__setattr__(self, "trivial_dim", index(self.trivial_dim))
        except TypeError:
            raise ValueError(f"trivial_dim must be an integer, got {self.trivial_dim!r}") from None
        if self.trivial_dim < 0:
            raise ValueError(f"trivial_dim must be >= 0, got {self.trivial_dim}")
        if any(w < 1 for w in self.weights):
            raise ValueError(f"weights must be positive integers, got {self.weights}")
        shared = math.gcd(*self.weights)  # 0 for no weights
        if shared > 1:
            raise NotEffective(f"weights {list(self.weights)} have gcd {shared} > 1")

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return self.trivial_dim + 2 * len(self.weights)

    def to_json(self) -> dict:
        return {"trivial_dim": self.trivial_dim, "weights": list(self.weights)}

    @classmethod
    def from_json(cls, data: dict) -> "ActionSpec":
        weights = data.get("weights") if isinstance(data, dict) else None
        if not isinstance(weights, list) or "trivial_dim" not in data:
            raise ValueError(f"expected a spec {{trivial_dim, weights: [...]}}, got {data!r}")
        weights = tuple(_wire_int(w, "a weight") for w in weights)
        return cls(_wire_int(data["trivial_dim"], "trivial_dim"), weights)


def _wire_int(value, name: str, error: type[Exception] = ValueError) -> int:
    """`value` if it is exactly an int, the rule of every JSON reader here:
    bools, floats and strings are refused, never converted."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def integers(values: Iterable[int], name: str) -> tuple[int, ...]:
    """The values as ints, by ``operator.index``, so that an int-like value
    is accepted and a float or string is refused, never truncated.

    Raises ValueError naming `name` if some value is not int-like.
    """
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{name} must be integers, got {values!r}") from None


def canonicalize(raw_weights: Iterable[int], trivial_dim: int = 0) -> ActionSpec:
    """Normalize raw weights into an :class:`ActionSpec`.

    Negative weights are conjugated to their absolute values, zero weights
    are folded into the trivial factor (two real dimensions each), and the
    survivors are sorted ascending.  Raises :class:`NotEffective` if the
    remaining weights share a divisor.
    """
    raw = integers(raw_weights, "weights")
    folded = trivial_dim + 2 * sum(1 for w in raw if w == 0)
    return ActionSpec(folded, tuple(sorted(abs(w) for w in raw if w != 0)))


def gcd_label(spec: ActionSpec, face: Iterable[int]) -> int:
    """gcd of the weights indexed by `face` (a non-empty subset of 1..m).

    This is the integer label the face carries on the weight simplex, and
    the order of the stabilizer of any point supported exactly there.
    """
    order = isotropy_order(spec, face)
    if order == INFINITE:
        raise ValueError("face must be a non-empty index set")
    return order


def isotropy_order(spec: ActionSpec, support: Iterable[int]) -> int | float:
    """Order of the stabilizer of a point with the given coordinate support.

    Empty support is the origin, fixed by the whole circle: returns
    :data:`INFINITE`.  Otherwise the gcd of the supported weights.  Raises
    IndexOutOfRange for an index outside 1..m.
    """
    idx = frozenset(integers(support, "indices"))
    bad = [i for i in idx if not 1 <= i <= spec.m]
    if bad:
        raise IndexOutOfRange(f"indices {sorted(bad)} outside 1..{spec.m}")
    return math.gcd(*(spec.weights[i - 1] for i in idx)) if idx else INFINITE
