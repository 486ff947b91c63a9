import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleact import (
    ActionSpec,
    EmptyAction,
    MalformedDiagram,
    NotEffective,
    StratificationDiagram,
    canonicalize,
    face_table,
)


def test_canonicalize_folds_zero_and_negative_weights():
    spec = canonicalize([0, -1, 2], 3)
    assert spec == ActionSpec(trivial_dim=5, weights=(1, 2))


def test_canonicalize_keeps_effective_weights():
    spec = canonicalize([1, 2, 3], 0)
    assert spec.trivial_dim == 0
    assert spec.weights == (1, 2, 3)
    assert spec.m == 3
    assert spec.n == 6


def test_canonicalize_rejects_shared_divisor():
    with pytest.raises(NotEffective):
        canonicalize([2, 4], 0)


def test_canonicalize_sorts_ascending():
    assert canonicalize([5, 1, 3]).weights == (1, 3, 5)


def test_all_zero_weights_are_refused():
    with pytest.raises(EmptyAction):
        canonicalize([0, 0], 1)


def test_constructor_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        ActionSpec(0, (0, 1))
    with pytest.raises(ValueError):
        ActionSpec(-1, (1,))


def test_constructor_rejects_ineffective_weights():
    with pytest.raises(NotEffective):
        ActionSpec(0, (2, 4))
    with pytest.raises(EmptyAction):
        ActionSpec(0, ())
    with pytest.raises(EmptyAction):
        ActionSpec(3, ())


def test_spec_json_roundtrip():
    spec = canonicalize([2, 3], 4)
    assert ActionSpec(**spec.to_json()) == spec
    assert spec.to_json() == {"trivial_dim": 4, "weights": [2, 3]}


@given(
    st.lists(st.integers(-9, 9), min_size=0, max_size=6),
    st.integers(0, 5),
)
def test_canonicalize_idempotent(raw, trivial):
    try:
        spec = canonicalize(raw, trivial)
    except (NotEffective, EmptyAction):
        return
    again = canonicalize(spec.weights, spec.trivial_dim)
    assert again == spec


def _face_order(spec, face):
    """The stabilizer order face_table gives the coordinate subset `face`."""
    return next(r.stabilizer_order for r in face_table(spec) if r.indices == set(face))


@pytest.mark.parametrize(
    "weights,face,expected",
    [
        ((1, 2, 3), {1, 3}, 1),
        ((2, 2, 3, 4, 6), {3, 5}, 3),
        ((2, 2, 3, 4, 6), {1, 2, 4, 5}, 2),
        ((2, 2, 3, 4, 6), {4}, 4),
    ],
)
def test_gcd_label(weights, face, expected):
    assert _face_order(ActionSpec(0, weights), face) == expected


def test_gcd_label_full_face_is_one():
    for weights in [(1,), (1, 2), (2, 3), (2, 2, 3, 4, 6)]:
        spec = ActionSpec(0, weights)
        assert _face_order(spec, range(1, spec.m + 1)) == 1


@given(st.data())
def test_gcd_label_monotone_under_inclusion(data):
    weights = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    shared = math.gcd(*weights)
    spec = ActionSpec(0, tuple(w // shared for w in weights))
    small = data.draw(
        st.sets(st.integers(1, spec.m), min_size=1, max_size=spec.m)
    )
    big = small | data.draw(st.sets(st.integers(1, spec.m), max_size=spec.m))
    assert _face_order(spec, small) % _face_order(spec, big) == 0


class _IntLike:
    """A non-int value that converts losslessly, as numpy integers do."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "build",
    [
        lambda: ActionSpec(0, (1.5, 2)),
        lambda: canonicalize([2.7, 3]),
        lambda: ActionSpec(1.5, (1,)),
        lambda: ActionSpec(0, ("2", "3")),
    ],
    ids=[
        "float-weight",
        "canonicalize-float",
        "float-trivial-dim",
        "str-weights",
    ],
)
def test_non_integer_input_is_refused_not_truncated(build):
    with pytest.raises(ValueError, match="integer"):
        build()


def test_int_like_input_is_accepted():
    spec = ActionSpec(_IntLike(2), (_IntLike(1), _IntLike(2)))
    assert spec == ActionSpec(2, (1, 2))
    assert type(spec.trivial_dim) is int and all(type(w) is int for w in spec.weights)
    assert canonicalize([_IntLike(-3), 0, 2]) == ActionSpec(2, (2, 3))


_WIRE_DIAGRAM = {
    "ambient_dim": 3,
    "strata": [{"id": "a", "order": 1, "dim": 2}, {"id": "d", "order": "inf", "dim": 0}],
    "closure": [["d", "a"]],
}


@pytest.mark.parametrize(
    "read, data, error, message",
    [
        (StratificationDiagram.from_json, {**_WIRE_DIAGRAM, "ambient_dim": True},
         MalformedDiagram, "integer, got True"),
    ],
    ids=["diagram-bool-ambient-dim"],
)
def test_wire_readers_share_one_exact_integer_rule(read, data, error, message):
    # JSON true is not the integer 1.
    with pytest.raises(error, match=message):
        read(data)


def test_wire_readers_accept_exact_integers():
    assert StratificationDiagram.from_json(_WIRE_DIAGRAM).ambient_dim == 3
