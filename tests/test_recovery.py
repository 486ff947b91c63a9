import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import (
    ActionSpec,
    CountMismatch,
    MalformedDiagram,
    NegativeMultiplicity,
    NoDistinguishedStratum,
    NotEffective,
    ParityError,
    StratificationDiagram,
    infer_dimensions,
    orbit_strata,
    recover_weights,
    roundtrip,
)


def diagram_of(weights, trivial_dim=0):
    spec = ActionSpec(trivial_dim, tuple(weights))
    return StratificationDiagram.from_json(orbit_strata(spec).to_json())


def abstract(ambient_dim, strata, closure):
    """Hand-build a diagram from (id, order, dim) rows and closure pairs."""
    return StratificationDiagram.from_json(
        {
            "ambient_dim": ambient_dim,
            "strata": [{"id": i, "order": o, "dim": d} for i, o, d in strata],
            "closure": [list(pair) for pair in closure],
        }
    )


# ---------------------------------------------------------------------------
# infer_dimensions
# ---------------------------------------------------------------------------


def test_infer_dimensions_weights_1_2_3():
    assert infer_dimensions(diagram_of((1, 2, 3))) == (6, 0, 3)


def test_infer_dimensions_weights_2_2_3_4_6():
    assert infer_dimensions(diagram_of((2, 2, 3, 4, 6))) == (10, 0, 5)


def test_infer_dimensions_with_trivial_factor():
    assert infer_dimensions(diagram_of((1,), trivial_dim=2)) == (4, 2, 1)


def test_infer_dimensions_requires_distinguished_stratum():
    with pytest.raises(NoDistinguishedStratum):
        infer_dimensions(
            abstract(2, [("order:1", 1, 1)], [])
        )


def test_infer_dimensions_rejects_two_infinite_strata():
    with pytest.raises(NoDistinguishedStratum):
        infer_dimensions(
            abstract(
                4,
                [("order:1", 1, 3), ("a", "inf", 0), ("b", "inf", 1)],
                [("a", "order:1"), ("b", "order:1")],
            )
        )


def test_infer_dimensions_rejects_odd_difference():
    with pytest.raises(ParityError):
        infer_dimensions(
            abstract(
                5,
                [("order:1", 1, 4), ("distinguished", "inf", 0)],
                [("distinguished", "order:1")],
            )
        )


def test_infer_dimensions_requires_unique_top():
    with pytest.raises(MalformedDiagram):
        infer_dimensions(
            abstract(
                6,
                [
                    ("order:2", 2, 5),
                    ("order:3", 3, 5),
                    ("distinguished", "inf", 0),
                ],
                [("distinguished", "order:2"), ("distinguished", "order:3")],
            )
        )


# ---------------------------------------------------------------------------
# recover_weights on the worked examples
# ---------------------------------------------------------------------------


def test_recover_weights_1_2_3():
    weights = recover_weights(diagram_of((1, 2, 3)))
    assert weights == (1, 2, 3)


def test_recover_weights_2_2_3_4_6_with_multiplicities():
    weights = recover_weights(diagram_of((2, 2, 3, 4, 6)))
    assert weights == (2, 2, 3, 4, 6)
    # per-order multiplicities: the top stratum contributes no weight here
    counts = {d: weights.count(d) for d in (1, 2, 3, 4, 6)}
    assert counts == {1: 0, 2: 2, 3: 1, 4: 1, 6: 1}


def test_recover_single_weight():
    assert recover_weights(diagram_of((1,))) == (1,)


def test_recover_all_ones_come_from_top_stratum():
    assert recover_weights(diagram_of((1, 1, 1))) == (1, 1, 1)


def test_recover_ignores_face_data_entirely():
    diagram = diagram_of((2, 3, 5))
    assert recover_weights(diagram) == (2, 3, 5)


def test_recover_is_independent_of_listing_order():
    base = orbit_strata(ActionSpec(0, (2, 2, 3, 4, 6))).to_json()
    rng = random.Random(99)
    for _ in range(5):
        shuffled = {
            "ambient_dim": base["ambient_dim"],
            "strata": rng.sample(base["strata"], len(base["strata"])),
            "closure": rng.sample(base["closure"], len(base["closure"])),
        }
        diagram = StratificationDiagram.from_json(shuffled)
        assert recover_weights(diagram) == (2, 2, 3, 4, 6)


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "weights,trivial",
    [
        ((1, 2, 3), 0),
        ((2, 2, 3, 4, 6), 0),
        ((7, 11, 13), 4),
        ((1,), 0),
        ((1, 1), 3),
        ((30, 29, 7, 1), 2),
    ],
)
def test_roundtrip_examples(weights, trivial):
    assert roundtrip(ActionSpec(trivial, weights))


def test_roundtrip_permutation_invariance():
    for weights in [(3, 2, 1), (6, 4, 3, 2, 2), (5, 3)]:
        spec = ActionSpec(0, weights)
        assert recover_weights(orbit_strata(spec)) == tuple(sorted(weights))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
    st.integers(0, 4),
)
def test_roundtrip_random_specs(raw_weights, trivial):
    shared = math.gcd(*raw_weights)
    spec = ActionSpec(trivial, tuple(w // shared for w in raw_weights))
    assert roundtrip(spec)


def test_roundtrip_exhaustive_tiny():
    for a in range(1, 9):
        for b in range(a, 9):
            if math.gcd(a, b) == 1:
                assert roundtrip(ActionSpec(0, (a, b)))


def test_roundtrip_rejects_purely_trivial_action():
    from circleact import EmptyAction

    with pytest.raises(EmptyAction):
        roundtrip(ActionSpec(3, ()))


def test_recovered_count_always_matches_m():
    for weights in [(1,), (1, 1), (2, 3), (2, 2, 3, 4, 6), (4, 6, 9), (6, 10, 15)]:
        diagram = diagram_of(weights)
        _, _, m = infer_dimensions(diagram)
        assert len(recover_weights(diagram)) == m == len(weights)


# ---------------------------------------------------------------------------
# malformed diagrams fail loudly
# ---------------------------------------------------------------------------


def negative_multiplicity_diagram():
    # two depth-2 strata below a single vertex's worth of budget
    return abstract(
        6,
        [
            ("order:1", 1, 5),
            ("order:2", 2, 1),
            ("order:4", 4, 1),
            ("order:6", 6, 1),
            ("distinguished", "inf", 0),
        ],
        [
            ("order:2", "order:1"),
            ("order:4", "order:1"),
            ("order:6", "order:1"),
            ("order:4", "order:2"),
            ("order:6", "order:2"),
            ("distinguished", "order:1"),
            ("distinguished", "order:2"),
            ("distinguished", "order:4"),
            ("distinguished", "order:6"),
        ],
    )


def gcd_two_diagram():
    return abstract(
        2,
        [("order:2", 2, 1), ("distinguished", "inf", 0)],
        [("distinguished", "order:2")],
    )


def test_negative_multiplicity_detected():
    with pytest.raises(NegativeMultiplicity) as err:
        recover_weights(negative_multiplicity_diagram())
    assert "order:2" in str(err.value)


def test_not_effective_detected():
    with pytest.raises(NotEffective):
        recover_weights(gcd_two_diagram())


def test_count_mismatch_on_non_transitive_closure():
    diagram = abstract(
        6,
        [
            ("order:1", 1, 5),
            ("order:2", 2, 3),
            ("order:4", 4, 1),
            ("distinguished", "inf", 0),
        ],
        [
            ("order:2", "order:1"),
            ("order:4", "order:2"),  # missing (order:4, order:1)
            ("distinguished", "order:1"),
            ("distinguished", "order:2"),
            ("distinguished", "order:4"),
        ],
    )
    with pytest.raises(CountMismatch):
        recover_weights(diagram)


def test_odd_stratum_codimension_rejected():
    diagram = abstract(
        4,
        [
            ("order:1", 1, 3),
            ("order:2", 2, 2),
            ("distinguished", "inf", 0),
        ],
        [
            ("order:2", "order:1"),
            ("distinguished", "order:1"),
            ("distinguished", "order:2"),
        ],
    )
    with pytest.raises(ParityError):
        recover_weights(diagram)


def test_duplicate_orders_rejected():
    diagram = abstract(
        6,
        [
            ("order:1", 1, 5),
            ("a", 2, 3),
            ("b", 2, 1),
            ("distinguished", "inf", 0),
        ],
        [
            ("a", "order:1"),
            ("b", "order:1"),
            ("b", "a"),
            ("distinguished", "order:1"),
            ("distinguished", "a"),
            ("distinguished", "b"),
        ],
    )
    with pytest.raises(MalformedDiagram):
        recover_weights(diagram)


def test_order_divisibility_violation_rejected():
    diagram = abstract(
        6,
        [
            ("order:1", 1, 5),
            ("order:2", 2, 3),
            ("order:3", 3, 1),
            ("distinguished", "inf", 0),
        ],
        [
            ("order:2", "order:1"),
            ("order:3", "order:1"),
            ("order:3", "order:2"),  # 2 does not divide 3
            ("distinguished", "order:1"),
            ("distinguished", "order:2"),
            ("distinguished", "order:3"),
        ],
    )
    with pytest.raises(MalformedDiagram):
        recover_weights(diagram)


def test_closure_cycle_rejected():
    diagram = abstract(
        6,
        [
            ("order:1", 1, 5),
            ("order:2", 2, 3),
            ("order:4", 4, 3),
            ("distinguished", "inf", 0),
        ],
        [
            ("order:2", "order:1"),
            ("order:4", "order:1"),
            ("order:2", "order:4"),
            ("order:4", "order:2"),
            ("distinguished", "order:1"),
        ],
    )
    with pytest.raises(MalformedDiagram):
        recover_weights(diagram)
