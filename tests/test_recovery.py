import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleact
from circleact import (
    INFINITE,
    ActionSpec,
    CircleActionError,
    CountMismatch,
    MalformedDiagram,
    NegativeMultiplicity,
    NoDistinguishedStratum,
    NotEffective,
    ParityError,
    StratificationDiagram,
    Stratum,
    UncertifiedDiagram,
    canonicalize,
    diagram_difference,
    orbit_strata,
    recover_weights,
    roundtrip,
)
from circleact.cli import main
from circleact.stratification import _difference, _labels, _spec_labels


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
# dimensions read off the diagram: n = ambient_dim, m = len(weights), t = n - 2m
# ---------------------------------------------------------------------------


def dimensions(diagram):
    """(n, trivial_dim, m) of the action that recover_weights certified."""
    m = len(recover_weights(diagram))
    return diagram.ambient_dim, diagram.ambient_dim - 2 * m, m


def test_infer_dimensions_weights_1_2_3():
    assert dimensions(diagram_of((1, 2, 3))) == (6, 0, 3)


def test_infer_dimensions_weights_2_2_3_4_6():
    assert dimensions(diagram_of((2, 2, 3, 4, 6))) == (10, 0, 5)


def test_infer_dimensions_with_trivial_factor():
    assert dimensions(diagram_of((1,), trivial_dim=2)) == (4, 2, 1)


def test_infer_dimensions_requires_distinguished_stratum():
    with pytest.raises(NoDistinguishedStratum):
        recover_weights(
            abstract(2, [("order:1", 1, 1)], [])
        )


def test_infer_dimensions_rejects_two_infinite_strata():
    with pytest.raises(NoDistinguishedStratum):
        recover_weights(
            abstract(
                4,
                [("order:1", 1, 3), ("a", "inf", 0), ("b", "inf", 1)],
                [("a", "order:1"), ("b", "order:1")],
            )
        )


def test_infer_dimensions_rejects_odd_difference():
    with pytest.raises(ParityError):
        recover_weights(
            abstract(
                5,
                [("order:1", 1, 4), ("distinguished", "inf", 0)],
                [("distinguished", "order:1")],
            )
        )


def test_infer_dimensions_requires_unique_top():
    with pytest.raises(MalformedDiagram):
        recover_weights(
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


def test_recovered_count_always_matches_m():
    for weights in [(1,), (1, 1), (2, 3), (2, 2, 3, 4, 6), (4, 6, 9), (6, 10, 15)]:
        diagram = diagram_of(weights)
        assert dimensions(diagram) == (2 * len(weights), 0, len(weights))


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


def test_negative_distinguished_dim_rejected():
    diagram = abstract(4, [("a", 1, 3), ("z", "inf", -2)], [("z", "a")])
    with pytest.raises(MalformedDiagram, match="negative dim -2"):
        recover_weights(diagram)


def test_library_built_fractional_order_is_a_malformed_diagram():
    diagram = StratificationDiagram(
        4,
        (Stratum("t", 1, 3), Stratum("a", 2.5, 1), Stratum("z", INFINITE, 0)),
        frozenset({("a", "t"), ("z", "t"), ("z", "a")}),
    )
    with pytest.raises(MalformedDiagram, match="positive integer orders"):
        recover_weights(diagram)


@pytest.mark.parametrize(
    "ambient_dim,order,dim,trivial_dim,message",
    [
        (3, 1, 2.0, 1, "dim must be an integer, got 2.0"),
        (3, 1, "2", 1, "dim must be an integer, got '2'"),
        (3, 1, 2, True, "dim must be an integer, got True"),
        (3.0, 1, 2, 1, "ambient_dim must be an integer, got 3.0"),
        (3, True, 2, 1, "finite strata must carry positive integer orders"),
    ],
    ids=["float-dim", "str-dim", "bool-dim", "float-ambient-dim", "bool-order"],
)
def test_library_built_diagram_obeys_the_wire_int_rule(
    ambient_dim, order, dim, trivial_dim, message
):
    # the diagram of weights (1,) on R x C, one number off the exact-int rule
    diagram = StratificationDiagram(
        ambient_dim,
        (Stratum("a", order, dim), Stratum("z", INFINITE, trivial_dim)),
        frozenset({("z", "a")}),
    )
    with pytest.raises(MalformedDiagram, match=re.escape(message) + "$"):
        recover_weights(diagram)


# ---------------------------------------------------------------------------
# the certificate: accepted iff some action produces the diagram
# ---------------------------------------------------------------------------


def worked_uncertified_diagram():
    # The one-pass count returns (1, 1, 1, 6, 12), whose orders 1, 6 and 12
    # are gcd-closed inside the input's but have no order-4 stratum.
    orders_dims = [(1, 10), (4, 2), (6, 4), (12, 2)]
    return abstract(
        11,
        [(f"s{d}", d, dim) for d, dim in orders_dims] + [("z", "inf", 1)],
        [("z", f"s{d}") for d, _ in orders_dims]
        + [(f"s{d}", f"s{e}") for d, _ in orders_dims for e, _ in orders_dims
           if d != e and d % e == 0],
    )


def test_worked_uncertified_diagram_is_rejected():
    first_only = r"only the first diagram has the stratum \(order, dim\) \(4, 2\)"
    with pytest.raises(UncertifiedDiagram, match=first_only):
        recover_weights(worked_uncertified_diagram())


def test_gcd_closed_uncertified_diagram_names_the_difference():
    # order:2 has codimension 4, so its face has m - 2 = 0 vertices: no weight has order 2
    diagram = abstract(
        5,
        [("order:1", 1, 4), ("order:2", 2, 0), ("z", "inf", 1)],
        [("order:2", "order:1"), ("z", "order:1"), ("z", "order:2")],
    )
    first_only = r"only the first diagram has the stratum \(order, dim\) \(2, 0\)"
    with pytest.raises(UncertifiedDiagram, match=first_only):
        recover_weights(diagram)


def test_uncertified_is_a_malformed_diagram():
    assert issubclass(UncertifiedDiagram, MalformedDiagram)


def test_stratum_below_a_non_multiple_order_rejected():
    # order:2 claims to sit below order:3, although 3 does not divide 2
    diagram = abstract(
        6,
        [("order:1", 1, 5), ("order:2", 2, 3), ("order:3", 3, 3), ("z", "inf", 0)],
        [("order:2", "order:1"), ("order:3", "order:1"), ("order:2", "order:3"),
         ("z", "order:1"), ("z", "order:2"), ("z", "order:3")],
    )
    with pytest.raises(MalformedDiagram, match="'order:2' lies below 'order:3'"):
        recover_weights(diagram)


def prime_quotient_wire(k, t=1):
    """Orders N/p for the first k primes p (N their product) below an
    order-1 top: the one-pass count gives each N/p one weight, but those
    weights' gcd closure has 2^k orders."""
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:k]
    n = math.prod(primes)
    top = {"id": "top", "order": 1, "dim": t + 2 * k - 1}
    strata = [{"id": f"s{p}", "order": n // p, "dim": t + 1} for p in primes]
    return {
        "ambient_dim": t + 2 * k,
        "strata": [top, *strata, {"id": "z", "order": "inf", "dim": t}],
        "closure": [[s["id"], "top"] for s in strata] + [["z", s["id"]] for s in [top, *strata]],
    }


def test_orders_missing_a_gcd_are_refused_before_the_closure_is_built():
    # a certificate that lets the closure grow toward 2^24 orders hangs, so
    # recover in a child process that the suite times out instead
    script = (
        "import json, sys, time\n"
        "from circleact import StratificationDiagram, recover_weights\n"
        "diagram = StratificationDiagram.from_json(json.load(sys.stdin))\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    recover_weights(diagram)\n"
        "except Exception as exc:\n"
        "    print(time.perf_counter() - start, f'{type(exc).__name__}: {exc}')\n"
    )
    src = os.path.dirname(os.path.dirname(circleact.__file__))
    child = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(prime_quotient_wire(24)), capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.stdout, child.stderr
    seconds, error = child.stdout.split(" ", 1)
    assert re.match(r"UncertifiedDiagram: no stratum has order \d+, the gcd of", error)
    assert float(seconds) < 1.0


@st.composite
def probe_diagrams(draw):
    """Random wire diagrams shaped like those of actions: divisibility
    closure, orders <= 12, at most 4 finite strata, the smallest order as
    top stratum, the other dims drawn freely."""
    t = draw(st.integers(0, 2))
    m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        orders = {1} | draw(st.sets(st.integers(2, 12), max_size=3))
    else:
        orders = draw(st.sets(st.integers(1, 12), min_size=1, max_size=4))
    orders = sorted(orders)
    dims = [m] + [draw(st.integers(1, m)) for _ in orders[1:]]
    return abstract(
        t + 2 * m,
        [(f"s{d}", d, t - 1 + 2 * c) for d, c in zip(orders, dims)] + [("z", "inf", t)],
        [("z", f"s{d}") for d in orders]
        + [(f"s{d}", f"s{e}") for d in orders for e in orders if d != e and d % e == 0],
    )


@settings(max_examples=400, deadline=None)
@given(probe_diagrams())
def test_every_accepted_diagram_is_the_diagram_of_its_answer(diagram):
    try:
        weights = recover_weights(diagram)
    except (MalformedDiagram, NotEffective):
        return
    trivial_dim = diagram.ambient_dim - 2 * len(weights)
    assert diagram_difference(diagram, orbit_strata(ActionSpec(trivial_dim, weights))) is None


canonical_specs = st.builds(
    lambda raw, t: canonicalize([w // math.gcd(*raw) for w in raw], t),
    st.lists(st.integers(1, 12), min_size=1, max_size=5),
    st.integers(0, 3),
)


@settings(max_examples=300, deadline=None)
@given(canonical_specs, canonical_specs, st.booleans())
def test_diagrams_agree_iff_the_canonical_specs_are_equal(s1, s2, same):
    if same:
        s2 = s1
    difference = diagram_difference(orbit_strata(s1), orbit_strata(s2))
    assert (difference is None) == (s1 == s2)


def test_diagram_difference_matches_by_order_not_id():
    genuine = diagram_of((2, 2, 3, 4, 6))
    renamed = {s.id: f"x{i}" for i, s in enumerate(genuine.strata)}
    relabelled = StratificationDiagram(
        genuine.ambient_dim,
        tuple(Stratum(renamed[s.id], s.order, s.dim) for s in reversed(genuine.strata)),
        frozenset((renamed[a], renamed[b]) for a, b in genuine.closure),
    )
    assert diagram_difference(genuine, relabelled) is None
    assert diagram_difference(genuine, diagram_of((2, 2, 3, 4, 6), 2)) == "ambient_dim 10 != 12"


def test_diagram_difference_names_a_duplicated_order():
    genuine = diagram_of((1, 2))
    doubled = StratificationDiagram(
        genuine.ambient_dim,
        genuine.strata + (Stratum("again", 2, 1),),
        genuine.closure,
    )
    assert diagram_difference(doubled, genuine) == (
        "only the first diagram has the stratum (order, dim) (2, 1)"
    )


def test_diagram_difference_names_a_missing_closure_pair():
    genuine = diagram_of((1, 2))
    thinned = StratificationDiagram(
        genuine.ambient_dim, genuine.strata, genuine.closure - {("order:2", "order:1")}
    )
    assert diagram_difference(thinned, genuine) == (
        "only the second diagram has the closure pair of orders (2, 1)"
    )


def perturbed(diagram, kind, pick):
    """`diagram` unchanged, or with one stratum's dim moved by 2, one stratum
    dropped with its closure pairs, its ids renamed, or one closure pair gone."""
    strata, closure = list(diagram.strata), set(diagram.closure)
    target = strata[pick % len(strata)]
    if kind in ("dim+2", "dim-2"):
        shift = 2 if kind == "dim+2" else -2
        strata[pick % len(strata)] = Stratum(target.id, target.order, target.dim + shift)
    elif kind == "drop":
        strata.remove(target)
        closure = {pair for pair in closure if target.id not in pair}
    elif kind == "relabel":
        names = [f"x{i}" for i in range(len(strata))]
        random.Random(pick).shuffle(names)
        renamed = dict(zip((s.id for s in strata), names))
        strata = [Stratum(renamed[s.id], s.order, s.dim) for s in reversed(strata)]
        closure = {(renamed[a], renamed[b]) for a, b in closure}
    elif kind == "unpair":
        closure.remove(sorted(closure)[pick % len(closure)])
    return StratificationDiagram(diagram.ambient_dim, tuple(strata), frozenset(closure))


certificate_specs = st.builds(
    lambda raw, t: canonicalize([w // math.gcd(*raw) for w in raw], t),
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
    st.integers(0, 4),
)


@settings(max_examples=300, deadline=None)
@given(
    certificate_specs,
    st.sampled_from([None, "dim+2", "dim-2", "drop", "relabel", "unpair"]),
    st.integers(0, 10**6),
)
def test_certificate_differs_exactly_as_diagram_difference_does(spec, kind, pick):
    """recover_weights compares a diagram with its recovered action's strata
    without building that action's diagram; the old composition is the oracle."""
    diagram = perturbed(orbit_strata(spec), kind, pick)
    bumped = [*spec.weights[:-1], spec.weights[-1] + 1]
    neighbour = canonicalize([w // math.gcd(*bumped) for w in bumped], spec.trivial_dim)
    for other in (spec, neighbour):
        expected = diagram_difference(diagram, orbit_strata(other))
        assert _difference(_labels(diagram), _spec_labels(other)) == expected
        if other is spec:
            assert (expected is None) == (kind in (None, "relabel"))


def gcd_gapped(spec, pick):
    """The diagram of spec's weights plus 31 times a missing divisor of one of
    its orders (or else plus 31*37 and 31*41), without the strata of the
    orders that the weights' own diagram lacks: so the inserted order's gcd
    with an existing order (or with the other inserted one) has no stratum,
    while every stratum still counts its weights as in an action's diagram."""
    orders = {s.order for s in orbit_strata(spec).strata} - {INFINITE}
    gaps = sorted({g for e in orders for g in range(2, e) if e % g == 0} - orders)
    extra = {31 * gaps[pick % len(gaps)]} if gaps else {31 * 37, 31 * 41}
    grown = orbit_strata(ActionSpec(spec.trivial_dim, spec.weights + tuple(extra)))
    kept = {s.id for s in grown.strata if s.order in orders | extra | {INFINITE}}
    return StratificationDiagram(
        grown.ambient_dim,
        tuple(s for s in grown.strata if s.id in kept),
        frozenset(pair for pair in grown.closure if set(pair) <= kept),
    )


def recover_with_pairwise_gcd_check(diagram):
    """recover_weights with the certificate it had before its gcd closure
    checked the input's orders: every pair of orders' gcd is looked up
    first, then the recovered action's unbounded closure is compared."""

    def certificate(spec, within):
        for a, b in combinations(sorted(within), 2):
            if math.gcd(a, b) not in within:
                raise UncertifiedDiagram(f"no stratum has order {math.gcd(a, b)}")
        return _spec_labels(spec)

    with mock.patch("circleact.recovery._spec_labels", certificate):
        return recover_weights(diagram)


def weights_or_error(recover, diagram):
    """(weights, "") or (the error's class, its message)."""
    try:
        return recover(diagram), ""
    except CircleActionError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    certificate_specs,
    st.sampled_from([None, "dim+2", "dim-2", "drop", "relabel", "unpair", "gcd-gap"]),
    st.integers(0, 10**6),
)
def test_closure_decides_as_the_pairwise_gcd_check_did(spec, kind, pick):
    if kind == "gcd-gap":
        diagram = gcd_gapped(spec, pick)
    else:
        diagram = perturbed(orbit_strata(spec), kind, pick)
    (outcome, message), (expected, _) = (
        weights_or_error(recover, diagram)
        for recover in (recover_weights, recover_with_pairwise_gcd_check)
    )
    assert outcome == expected
    assert outcome is UncertifiedDiagram or kind != "gcd-gap"
    named = re.fullmatch(r"no stratum has order (\d+), the gcd of (\d+) and (\d+)", message)
    if named:
        g, a, b = map(int, named.groups())
        orders = {s.order for s in diagram.strata} - {INFINITE}
        assert g == math.gcd(a, b) and a < b and {a, b} <= orders and g not in orders


wire_ids = st.sampled_from(["a", "b", "c", "z"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
wire_diagrams = st.fixed_dictionaries(
    {
        "ambient_dim": st.integers(-2, 14) | json_values,
        "strata": st.lists(
            st.fixed_dictionaries(
                {
                    "id": wire_ids,
                    "order": st.integers(-1, 13) | st.just("inf") | json_values,
                    "dim": st.integers(-3, 13) | json_values,
                }
            ),
            max_size=5,
        ),
        "closure": st.lists(st.lists(wire_ids, min_size=2, max_size=2) | json_values, max_size=10),
    }
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values, wire_diagrams))
def test_recover_cli_exits_0_or_2_without_traceback_on_any_json(data):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(data))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["recover", "--diagram", "-", "--format", "json"])
    finally:
        sys.stdin = saved
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        report = json.loads(out.getvalue())
        diagram = StratificationDiagram.from_json(data)
        spec = ActionSpec(report["trivial_dim"], tuple(report["weights"]))
        assert diagram_difference(diagram, orbit_strata(spec)) is None
