"""Normal form of an effective linear circle action.

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

from .errors import EmptyAction, NotEffective


@dataclass(frozen=True)
class ActionSpec:
    """An effective linear circle action in normal form.

    `trivial_dim` is the dimension of the fixed factor; `weights` are the
    rotation speeds of the m complex coordinates.  Weights must be positive
    with overall gcd 1 (use :func:`canonicalize` to normalize raw input), and
    there must be at least one: an action with no nonzero weight is trivial,
    so not effective, and raises :class:`EmptyAction`.
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
        if not self.weights:
            raise EmptyAction("no weighted coordinates: the trivial action is not effective")
        if any(w < 1 for w in self.weights):
            raise ValueError(f"weights must be positive integers, got {self.weights}")
        shared = math.gcd(*self.weights)
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
    survivors are sorted ascending.  Raises :class:`EmptyAction` if no
    weight is nonzero and :class:`NotEffective` if the remaining weights
    share a divisor.
    """
    raw = integers(raw_weights, "weights")
    folded = trivial_dim + 2 * sum(1 for w in raw if w == 0)
    return ActionSpec(folded, tuple(sorted(abs(w) for w in raw if w != 0)))
