import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circleact import (
    INFINITE,
    ActionSpec,
    ExponentVector,
    IndexOutOfRange,
    InvariantGenerator,
    MalformedDiagram,
    NotEffective,
    StratificationDiagram,
    canonicalize,
    gcd_label,
    isotropy_order,
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


def test_all_zero_weights_become_trivial_factor():
    spec = canonicalize([0, 0], 1)
    assert spec.weights == ()
    assert spec.trivial_dim == 5
    assert spec.n == 5


def test_constructor_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        ActionSpec(0, (0, 1))
    with pytest.raises(ValueError):
        ActionSpec(-1, (1,))


def test_constructor_rejects_ineffective_weights():
    with pytest.raises(NotEffective):
        ActionSpec(0, (2, 4))


def test_spec_json_roundtrip():
    spec = canonicalize([2, 3], 4)
    assert ActionSpec.from_json(spec.to_json()) == spec
    assert spec.to_json() == {"trivial_dim": 4, "weights": [2, 3]}


@given(
    st.lists(st.integers(-9, 9), min_size=0, max_size=6),
    st.integers(0, 5),
)
def test_canonicalize_idempotent(raw, trivial):
    try:
        spec = canonicalize(raw, trivial)
    except NotEffective:
        return
    again = canonicalize(spec.weights, spec.trivial_dim)
    assert again == spec


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
    assert gcd_label(ActionSpec(0, weights), face) == expected


def test_gcd_label_full_face_is_one():
    for weights in [(1,), (1, 2), (2, 3), (2, 2, 3, 4, 6)]:
        spec = ActionSpec(0, weights)
        assert gcd_label(spec, range(1, spec.m + 1)) == 1


def test_gcd_label_rejects_bad_indices():
    spec = ActionSpec(0, (1, 2))
    with pytest.raises(IndexOutOfRange):
        gcd_label(spec, {0, 1})
    with pytest.raises(IndexOutOfRange):
        gcd_label(spec, {3})
    with pytest.raises(ValueError):
        gcd_label(spec, set())


@given(st.data())
def test_gcd_label_monotone_under_inclusion(data):
    weights = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    shared = math.gcd(*weights)
    spec = ActionSpec(0, tuple(w // shared for w in weights))
    small = data.draw(
        st.sets(st.integers(1, spec.m), min_size=1, max_size=spec.m)
    )
    big = small | data.draw(st.sets(st.integers(1, spec.m), max_size=spec.m))
    assert gcd_label(spec, small) % gcd_label(spec, big) == 0


def test_isotropy_order_examples():
    assert isotropy_order(ActionSpec(0, (1, 2)), {1}) == 1
    assert isotropy_order(ActionSpec(0, (3, 5)), {1}) == 3
    assert isotropy_order(ActionSpec(0, (1, 2)), set()) == INFINITE
    assert isotropy_order(ActionSpec(0, (2, 2, 3, 4, 6)), {4}) == 4


def test_isotropy_order_matches_gcd_label_on_nonempty_supports():
    spec = ActionSpec(0, (2, 2, 3, 4, 6))
    for j in range(1, 6):
        assert isotropy_order(spec, {j}) == gcd_label(spec, {j})
    assert isotropy_order(spec, {2, 4}) == gcd_label(spec, {2, 4})


@pytest.mark.parametrize("query", [gcd_label, isotropy_order])
@pytest.mark.parametrize("indices", [[1.7], [2.2], ["1"], [1, 2.0]])
def test_non_integer_indices_are_refused_not_truncated(query, indices):
    with pytest.raises(ValueError, match="indices must be integers"):
        query(ActionSpec(0, (2, 3)), indices)


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
        lambda: ActionSpec.from_json({"trivial_dim": 0, "weights": [1.9, 2.2]}),
        lambda: ActionSpec.from_json({"trivial_dim": True, "weights": [1]}),
        lambda: ActionSpec.from_json({"trivial_dim": 0, "weights": [True, 2]}),
        lambda: canonicalize([2.7, 3]),
        lambda: ActionSpec(1.5, (1,)),
        lambda: ActionSpec(0, ("2", "3")),
    ],
    ids=[
        "float-weight",
        "json-float-weights",
        "json-bool-trivial-dim",
        "json-bool-weight",
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
        (ExponentVector.from_json, {"k": [True], "kbar": [1]}, ValueError, "integer, got True"),
        (ExponentVector.from_json, {"k": [1], "kbar": [1.0]}, ValueError, "integer, got 1.0"),
        (ExponentVector.from_json, {"k": [1]}, ValueError, "expected exponents"),
        (ExponentVector.from_json, {"k": 1, "kbar": 1}, ValueError, "expected exponents"),
        (ExponentVector.from_json, [[1], [1]], ValueError, "expected exponents"),
        (InvariantGenerator.from_json, {"k": [True], "kbar": [1], "part": "abs2"}, ValueError,
         "integer, got True"),
        (InvariantGenerator.from_json, {"k": [1], "kbar": [1]}, ValueError, "unknown part"),
        (ActionSpec.from_json, {"weights": [1]}, ValueError, "expected a spec"),
        (ActionSpec.from_json, {"trivial_dim": 0}, ValueError, "expected a spec"),
        (ActionSpec.from_json, {"trivial_dim": 0, "weights": 1}, ValueError, "expected a spec"),
        (ActionSpec.from_json, [1], ValueError, "expected a spec"),
        (ActionSpec.from_json, {"trivial_dim": 0, "weights": [False, 1]}, ValueError,
         "integer, got False"),
        (StratificationDiagram.from_json, {**_WIRE_DIAGRAM, "ambient_dim": True},
         MalformedDiagram, "integer, got True"),
    ],
    ids=[
        "exponent-bool",
        "exponent-float",
        "exponent-missing-kbar",
        "exponent-not-lists",
        "exponent-not-an-object",
        "generator-bool",
        "generator-missing-part",
        "spec-missing-trivial-dim",
        "spec-missing-weights",
        "spec-weights-not-a-list",
        "spec-not-an-object",
        "spec-bool-weight",
        "diagram-bool-ambient-dim",
    ],
)
def test_wire_readers_share_one_exact_integer_rule(read, data, error, message):
    # JSON true is not the exponent or weight 1, and a missing key or a
    # wrong container names what was expected rather than raising KeyError
    # or TypeError.
    with pytest.raises(error, match=message):
        read(data)


def test_wire_readers_accept_exact_integers():
    assert ExponentVector.from_json({"k": [2, 0], "kbar": [0, 1]}) == ExponentVector((2, 0), (0, 1))
    assert ActionSpec.from_json({"trivial_dim": 1, "weights": [1, 2]}) == ActionSpec(1, (1, 2))
    assert StratificationDiagram.from_json(_WIRE_DIAGRAM).ambient_dim == 3
