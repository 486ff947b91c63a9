import json
import math
import time
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import (
    ActionSpec,
    DISTINGUISHED_ID,
    FaceClass,
    INFINITE,
    MalformedDiagram,
    StratificationDiagram,
    Stratum,
    TooManyFaces,
    face_table,
    hasse_edges,
    orbit_strata,
    recover_weights,
)

BRUTE_FORCE_WEIGHTS = [
    (1,),
    (1, 2),
    (2, 3),
    (1, 2, 3),
    (2, 2, 3, 4, 6),
    (6, 10, 15),
    (4, 6, 9),
    (2, 3, 4, 5, 6, 7),
    (2, 2, 2, 3, 3, 5, 7, 8, 9, 10, 11, 12),  # m = 12
]


def subset_gcd_groups(weights):
    """Order -> set of faces, straight from the definition (all subsets)."""
    m = len(weights)
    groups = {}
    for size in range(1, m + 1):
        for combo in combinations(range(1, m + 1), size):
            order = math.gcd(*(weights[i - 1] for i in combo))
            groups.setdefault(order, set()).add(frozenset(combo))
    return groups


def faces_by_order(spec):
    """Stabilizer order -> faces of that order, in face_table's listing order."""
    groups = {}
    for row in face_table(spec):
        groups.setdefault(row.stabilizer_order, []).append(row.indices)
    return groups


def diagram_from_faces(spec):
    """The diagram by definition: the face table grouped by order, each
    stratum sized by its largest face, ordered by inclusion of those faces."""
    tops = {d: max(faces, key=len) for d, faces in faces_by_order(spec).items()}
    strata = [
        Stratum(f"order:{d}", d, spec.trivial_dim + 2 * len(tops[d]) - 1) for d in sorted(tops)
    ]
    strata.append(Stratum(DISTINGUISHED_ID, INFINITE, spec.trivial_dim))
    closure = {(DISTINGUISHED_ID, f"order:{d}") for d in tops}
    closure |= {(f"order:{d}", f"order:{e}") for d in tops for e in tops if tops[d] < tops[e]}
    return StratificationDiagram(spec.n, tuple(strata), frozenset(closure))


# ---------------------------------------------------------------------------
# face_table
# ---------------------------------------------------------------------------


def test_face_table_weights_1_2_3_matches_tabulation():
    rows = face_table(ActionSpec(0, (1, 2, 3)))
    expected = [
        ({1, 2, 3}, 1, 0),
        ({1, 2}, 1, 2),
        ({1, 3}, 1, 2),
        ({2, 3}, 1, 2),
        ({1}, 1, 4),
        ({2}, 2, 4),
        ({3}, 3, 4),
    ]
    assert [(set(r.indices), r.stabilizer_order, r.codim) for r in rows] == expected


def test_face_table_single_weight():
    rows = face_table(ActionSpec(0, (1,)))
    assert rows == [FaceClass(frozenset({1}), 1, 0)]


def test_face_table_codim_6_entry():
    rows = face_table(ActionSpec(0, (2, 2, 3, 4, 6)))
    entry = next(r for r in rows if r.indices == frozenset({3, 5}))
    assert entry.stabilizer_order == 3
    assert entry.codim == 6


def test_face_table_refuses_more_than_16_coordinates():
    with pytest.raises(TooManyFaces, match="m = 17 is over the face table's bound m = 16"):
        face_table(ActionSpec(0, (1,) * 17))


@pytest.mark.parametrize("weights", BRUTE_FORCE_WEIGHTS)
def test_face_counts_are_binomial(weights):
    spec = ActionSpec(0, weights)
    rows = face_table(spec)
    assert len(rows) == 2**spec.m - 1
    for level in range(spec.m):
        count = sum(1 for r in rows if r.codim == 2 * level)
        assert count == math.comb(spec.m, level)


# ---------------------------------------------------------------------------
# orbit_strata against brute-force face groupings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("weights", BRUTE_FORCE_WEIGHTS)
def test_each_order_group_has_unique_maximal_face(weights):
    groups = subset_gcd_groups(weights)
    for order, faces in groups.items():
        maximal = [f for f in faces if not any(f < g for g in faces)]
        assert len(maximal) == 1
        top = maximal[0]
        assert all(f <= top for f in faces)
        assert top == frozenset(
            j for j in range(1, len(weights) + 1) if weights[j - 1] % order == 0
        )


@pytest.mark.parametrize("weights", BRUTE_FORCE_WEIGHTS)
def test_same_order_faces_form_one_component(weights):
    for order, faces in subset_gcd_groups(weights).items():
        faces = list(faces)
        parent = list(range(len(faces)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                if faces[i] <= faces[j] or faces[j] <= faces[i]:
                    parent[find(i)] = find(j)
        assert len({find(i) for i in range(len(faces))}) == 1


@pytest.mark.parametrize("weights", BRUTE_FORCE_WEIGHTS)
def test_divisibility_order_equals_face_inclusion_order(weights):
    spec = ActionSpec(0, weights)
    diagram = orbit_strata(spec)
    groups = subset_gcd_groups(weights)
    orders = sorted(groups)
    for d in orders:
        for e in orders:
            by_divisibility = d == e or (f"order:{d}", f"order:{e}") in diagram.closure
            by_inclusion = d == e or any(
                small <= big for small in groups[d] for big in groups[e]
            )
            assert by_divisibility == by_inclusion, (weights, d, e)


@pytest.mark.parametrize("weights", BRUTE_FORCE_WEIGHTS)
def test_strata_faces_partition_the_face_table(weights):
    spec = ActionSpec(0, weights)
    diagram = orbit_strata(spec)
    groups = faces_by_order(spec)
    # every face's gcd is a stratum order, and every stratum order is some face's gcd
    finite = [s for s in diagram.strata if s.order != INFINITE]
    assert sorted(groups) == [s.order for s in finite]
    for s in finite:
        largest = max(groups[s.order], key=len)
        assert s.dim == spec.trivial_dim + 2 * len(largest) - 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=10),
    st.integers(0, 4),
)
def test_orbit_strata_equals_the_face_table_grouping(raw_weights, trivial):
    shared = math.gcd(*raw_weights)
    spec = ActionSpec(trivial, tuple(w // shared for w in raw_weights))
    assert orbit_strata(spec) == diagram_from_faces(spec)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=8),
    st.integers(0, 4),
)
def test_trusted_diagram_equals_the_checked_one(raw_weights, trivial):
    # orbit_strata and from_json build strata and diagrams without the
    # dataclass checks; the results must be the values the checks accept
    shared = math.gcd(*raw_weights)
    diagram = orbit_strata(ActionSpec(trivial, tuple(w // shared for w in raw_weights)))
    checked = StratificationDiagram(diagram.ambient_dim, diagram.strata, diagram.closure)
    assert diagram == checked
    assert hash(diagram) == hash(checked)
    parsed = StratificationDiagram.from_json(diagram.to_json())
    assert parsed == diagram
    for s in diagram.strata + parsed.strata:
        assert s == Stratum(s.id, s.order, s.dim)
        assert hash(s) == hash(Stratum(s.id, s.order, s.dim))
        with pytest.raises(FrozenInstanceError):
            s.dim = s.dim + 2
    with pytest.raises(FrozenInstanceError):
        diagram.closure = frozenset()


def test_wide_action_stratifies_and_recovers():
    spec = ActionSpec(0, tuple(range(1, 65)))
    diagram = orbit_strata(spec)
    assert len(diagram.strata) == 65
    assert recover_weights(StratificationDiagram.from_json(diagram.to_json())) == spec.weights


@pytest.mark.parametrize(
    "weights,trivial", [((1, 2, 3), 0), ((2, 2, 3, 4, 6), 0), ((2, 3), 5)]
)
def test_dimension_bookkeeping(weights, trivial):
    spec = ActionSpec(trivial, weights)
    diagram = orbit_strata(spec)
    dims = {s.id: s.dim for s in diagram.strata}
    assert dims["order:1"] == spec.n - 1
    for s in diagram.strata:
        if s.order != INFINITE:
            assert (dims["order:1"] - s.dim) % 2 == 0
            assert s.dim >= spec.trivial_dim
    assert [s.dim for s in diagram.strata if s.order == INFINITE] == [spec.trivial_dim]


# ---------------------------------------------------------------------------
# golden diagrams
# ---------------------------------------------------------------------------


def test_strata_weights_1():
    diagram = orbit_strata(ActionSpec(0, (1,)))
    assert [(s.id, s.order, s.dim) for s in diagram.strata] == [
        ("order:1", 1, 1),
        (DISTINGUISHED_ID, INFINITE, 0),
    ]
    assert hasse_edges(diagram) == set()


def test_strata_weights_1_2_3():
    diagram = orbit_strata(ActionSpec(0, (1, 2, 3)))
    info = {s.id: (s.order, s.dim) for s in diagram.strata}
    assert info == {
        "order:1": (1, 5),
        "order:2": (2, 1),
        "order:3": (3, 1),
        DISTINGUISHED_ID: (INFINITE, 0),
    }
    assert hasse_edges(diagram) == {
        ("order:2", "order:1"),
        ("order:3", "order:1"),
    }


def test_strata_weights_2_2_3_4_6():
    diagram = orbit_strata(ActionSpec(0, (2, 2, 3, 4, 6)))
    dims = {s.id: s.dim for s in diagram.strata if s.order != INFINITE}
    codims = {i: dims["order:1"] - dim for i, dim in dims.items()}
    assert codims == {
        "order:1": 0,
        "order:2": 2,
        "order:3": 6,
        "order:4": 8,
        "order:6": 8,
    }
    assert hasse_edges(diagram) == {
        ("order:2", "order:1"),
        ("order:3", "order:1"),
        ("order:4", "order:2"),
        ("order:6", "order:2"),
        ("order:6", "order:3"),
    }


def test_strata_group_memberships_match_worked_example():
    spec = ActionSpec(0, (2, 2, 3, 4, 6))
    groups = faces_by_order(spec)
    assert groups[3] == [frozenset({3, 5}), frozenset({3})]
    assert groups[4] == [frozenset({4})]
    assert groups[6] == [frozenset({5})]
    assert len(groups[1]) == 14
    assert len(groups[2]) == 13
    assert sorted(groups) == [s.order for s in orbit_strata(spec).strata if s.order != INFINITE]


def test_trivial_factor_only_shifts_dimensions():
    flat = orbit_strata(ActionSpec(0, (2, 3)))
    lifted = orbit_strata(ActionSpec(4, (2, 3)))
    assert {s.id for s in flat.strata} == {s.id for s in lifted.strata}
    lifted_dims = {s.id: s.dim for s in lifted.strata}
    for s in flat.strata:
        assert lifted_dims[s.id] == s.dim + 4
    assert hasse_edges(flat) == hasse_edges(lifted)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_wire_format():
    diagram = orbit_strata(ActionSpec(0, (1, 2)))
    data = diagram.to_json()
    assert data["ambient_dim"] == 4
    assert data["strata"] == [
        {"id": "order:1", "order": 1, "dim": 3},
        {"id": "order:2", "order": 2, "dim": 1},
        {"id": DISTINGUISHED_ID, "order": "inf", "dim": 0},
    ]
    assert data["closure"] == [
        [DISTINGUISHED_ID, "order:1"],
        [DISTINGUISHED_ID, "order:2"],
        ["order:2", "order:1"],
    ]
    assert json.loads(json.dumps(data)) == data


def test_json_roundtrip_drops_faces_only():
    diagram = orbit_strata(ActionSpec(2, (2, 2, 3, 4, 6)))
    back = StratificationDiagram.from_json(diagram.to_json())
    assert back.ambient_dim == diagram.ambient_dim
    assert back.closure == diagram.closure
    assert [(s.id, s.order, s.dim) for s in back.strata] == [
        (s.id, s.order, s.dim) for s in diagram.strata
    ]


_WIRE_1 = {
    "ambient_dim": 3,
    "strata": [{"id": "a", "order": 1, "dim": 2}, {"id": "d", "order": "inf", "dim": 0}],
    "closure": [["d", "a"]],
}


@pytest.mark.parametrize(
    "where, key, value",
    [(None, "ambient_dim", True), (0, "order", "1"), (0, "dim", 2.0)],
    ids=["bool-ambient-dim", "string-order", "float-dim"],
)
def test_diagram_reader_refuses_non_integers(where, key, value):
    # JSON true is not the order 1: bools, floats and strings are refused,
    # never converted.
    data = json.loads(json.dumps(_WIRE_1))
    (data if where is None else data["strata"][where])[key] = value
    with pytest.raises(MalformedDiagram, match=f"{key} must be an integer, got {value!r}"):
        StratificationDiagram.from_json(data)


def test_dot_export_lists_all_nodes_and_cover_edges():
    diagram = orbit_strata(ActionSpec(0, (1, 2, 3)))
    dot = diagram.to_dot()
    assert dot.startswith("digraph")
    assert '"order:1" [label="order:1 (order 1, dim 5)"];' in dot
    assert '"distinguished" [label="distinguished (order inf, dim 0)"];' in dot
    assert '"order:2" -> "order:1";' in dot
    assert '"order:3" -> "order:1";' in dot
    assert dot.count("->") == 2


def test_dot_export_of_orbit_strata_is_pinned():
    diagram = orbit_strata(ActionSpec(1, (2, 2, 3, 4, 6)))
    assert diagram.to_dot() == (
        'digraph stratification {\n'
        '  "order:1" [label="order:1 (order 1, dim 10)"];\n'
        '  "order:2" [label="order:2 (order 2, dim 8)"];\n'
        '  "order:3" [label="order:3 (order 3, dim 4)"];\n'
        '  "order:4" [label="order:4 (order 4, dim 2)"];\n'
        '  "order:6" [label="order:6 (order 6, dim 2)"];\n'
        '  "distinguished" [label="distinguished (order inf, dim 1)"];\n'
        '  "order:2" -> "order:1";\n'
        '  "order:3" -> "order:1";\n'
        '  "order:4" -> "order:2";\n'
        '  "order:6" -> "order:2";\n'
        '  "order:6" -> "order:3";\n'
        '}\n'
    )


def test_dot_export_escapes_quotes_and_backslashes_in_ids():
    diagram = StratificationDiagram.from_json(
        {
            "ambient_dim": 4,
            "strata": [
                {"id": 'a"b', "order": 1, "dim": 3},
                {"id": "c\\d", "order": 2, "dim": 1},
                {"id": "z", "order": "inf", "dim": 0},
            ],
            "closure": [["z", 'a"b'], ["z", "c\\d"], ["c\\d", 'a"b']],
        }
    )
    lines = diagram.to_dot().splitlines()
    assert lines[1] == '  "a\\"b" [label="a\\"b (order 1, dim 3)"];'
    assert lines[2] == '  "c\\\\d" [label="c\\\\d (order 2, dim 1)"];'
    assert lines[4] == '  "c\\\\d" -> "a\\"b";'


# ---------------------------------------------------------------------------
# views derived from the closure
# ---------------------------------------------------------------------------


def scan_above(diagram, stratum_id):
    return {b for a, b in diagram.closure if a == stratum_id}


def scan_maximal_finite(diagram):
    finite = [s for s in diagram.strata if s.order != INFINITE]
    finite_ids = {s.id for s in finite}
    return [s for s in finite if not (scan_above(diagram, s.id) & finite_ids)]


def scan_hasse_edges(diagram):
    finite_ids = {s.id for s in diagram.strata if s.order != INFINITE}
    strict = {(a, b) for a, b in diagram.closure if a in finite_ids and b in finite_ids}
    return {
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in finite_ids)
    }


INDEX_IDS = ["p", "q", "r", "s", "t", DISTINGUISHED_ID]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5),
    st.sets(st.tuples(st.sampled_from(INDEX_IDS), st.sampled_from(INDEX_IDS)), max_size=20),
)
def test_closure_index_agrees_with_closure_scans(finite_count, pairs):
    # random closures: non-transitive, with self-pairs and pairs on either
    # side of the distinguished stratum
    ids = INDEX_IDS[:finite_count] + [DISTINGUISHED_ID]
    closure = frozenset((a, b) for a, b in pairs if a in ids and b in ids)
    strata = tuple(Stratum(i, k + 1, 2 * k + 1) for k, i in enumerate(ids[:-1]))
    diagram = StratificationDiagram(9, strata + (Stratum(DISTINGUISHED_ID, INFINITE, 0),), closure)
    tops = scan_maximal_finite(diagram)
    # ambient_dim 9 is odd and every top dim + 1 is even, so a single top
    # always passes the top rule and names itself in the next refusal
    message = f"top stratum, found {len(tops)}" if len(tops) != 1 else f"= {tops[0].dim + 1}"
    with pytest.raises(MalformedDiagram, match=message + "$"):
        recover_weights(diagram)
    assert hasse_edges(diagram) == scan_hasse_edges(diagram)


def test_closure_index_cannot_be_changed_through_its_answers():
    diagram = orbit_strata(ActionSpec(0, (1, 2)))
    assert hasse_edges(diagram) == {("order:2", "order:1")}


def test_million_weight_diagram_recovers_within_two_seconds():
    # weights 1..1000, each taken 1,000 times: m = 10^6 and 1,000 strata,
    # each dim from t + 2 #{j : d | w_j} - 1
    k = 1000
    strata = tuple(Stratum(f"s{d}", d, 2 * k * (k // d) - 1) for d in range(1, k + 1))
    closure = {("z", f"s{d}") for d in range(1, k + 1)}
    closure |= {(f"s{d}", f"s{e}") for d in range(1, k + 1) for e in range(1, d) if d % e == 0}
    diagram = StratificationDiagram(
        2 * k * k, strata + (Stratum("z", INFINITE, 0),), frozenset(closure)
    )
    start = time.perf_counter()
    weights = recover_weights(diagram)
    elapsed = time.perf_counter() - start
    assert weights == tuple(w for w in range(1, k + 1) for _ in range(k))
    assert elapsed < 2.0
