import copy
import math
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import (
    ActionSpec,
    ExponentVector,
    InvariantGenerator,
    LengthMismatch,
    NotInvariant,
    PART_ABS2,
    PART_IM,
    PART_RE,
    TooManyCandidates,
    abs2_exponent,
    circle_weight,
    decompose,
    hilbert_basis,
    is_invariant_exponent,
    invariants,
    realize_generators,
)

# ---------------------------------------------------------------------------
# Independent oracles.  These re-derive the expected answers by raw
# enumeration and never call into the code paths they check.
# ---------------------------------------------------------------------------


def rotation_weight(weights, vec):
    m = len(weights)
    return sum(a * (vec[i] - vec[m + i]) for i, a in enumerate(weights))


def box_basis_oracle(weights):
    """All minimal invariant vectors, by brute force over the exponent box.

    Enumerates every vector with entries up to max(weights), keeps the
    invariant ones, and discards any that is the sum of two nonzero
    invariant vectors.  Only usable for tiny weights.
    """
    m = len(weights)
    cap = max(weights)
    invariant = [
        vec
        for vec in product(range(cap + 1), repeat=2 * m)
        if any(vec) and rotation_weight(weights, vec) == 0
    ]
    inv_set = set(invariant)
    minimal = set()
    for vec in invariant:
        summands = (
            other
            for other in inv_set
            if other != vec and all(a <= b for a, b in zip(other, vec))
        )
        if not any(summands):
            minimal.add(ExponentVector(vec[:m], vec[m:]))
    return frozenset(minimal)


def dominates(e, f):
    """Componentwise >= on the exponents of e and f."""
    return all(
        a >= b
        for a, b in zip(e.holomorphic + e.antiholomorphic, f.holomorphic + f.antiholomorphic)
    )


def bounded_tuples(width, total):
    if width == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in bounded_tuples(width - 1, total - head):
            yield (head,) + rest


def invariant_vectors_up_to(weights, max_degree):
    """Every invariant exponent vector of total degree <= max_degree."""
    buckets = {}
    for k in bounded_tuples(len(weights), max_degree):
        buckets.setdefault(sum(a * x for a, x in zip(weights, k)), []).append(k)
    found = []
    for dot, ks in buckets.items():
        for k in ks:
            for kbar in ks:
                if any(k + kbar) and sum(k) + sum(kbar) <= max_degree:
                    found.append(ExponentVector(k, kbar))
    return found


def effective_weight_multisets(max_m, max_weight):
    for m in range(1, max_m + 1):
        for combo in product(range(1, max_weight + 1), repeat=m):
            if tuple(sorted(combo)) == combo and math.gcd(*combo) == 1:
                yield combo


# ---------------------------------------------------------------------------
# circle_weight / is_invariant_exponent
# ---------------------------------------------------------------------------


def test_circle_weight_examples():
    spec = ActionSpec(0, (1, 2))
    assert circle_weight(spec, ExponentVector((2, 0), (0, 1))) == 0
    assert circle_weight(spec, ExponentVector((0, 0), (0, 0))) == 0
    assert circle_weight(spec, ExponentVector((1, 0), (0, 1))) == -1


def test_is_invariant_examples():
    spec = ActionSpec(0, (1, 2))
    assert is_invariant_exponent(spec, ExponentVector((2, 0), (0, 1)))
    assert not is_invariant_exponent(spec, ExponentVector((1, 0), (0, 1)))
    assert is_invariant_exponent(ActionSpec(0, (1,)), ExponentVector((1,), (1,)))


def test_circle_weight_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        circle_weight(ActionSpec(0, (1, 2)), ExponentVector((1,), (1,)))


def test_exponent_vector_validation():
    with pytest.raises(LengthMismatch):
        ExponentVector((1, 0), (1,))
    with pytest.raises(ValueError):
        ExponentVector((-1,), (0,))


def test_exponent_vector_refuses_non_integer_exponents():
    with pytest.raises(ValueError, match="integer"):
        ExponentVector((0.5, 0), (0, 0))
    with pytest.raises(ValueError, match="integer"):
        ExponentVector((1, 0), (0, 2.0))


def test_exponent_vector_json_roundtrip():
    e = ExponentVector((2, 0), (0, 1))
    data = e.to_json()
    assert ExponentVector(data["k"], data["kbar"]) == e
    assert e.to_json() == {"k": [2, 0], "kbar": [0, 1]}


# ---------------------------------------------------------------------------
# hilbert_basis
# ---------------------------------------------------------------------------


def test_basis_single_unit_weight():
    assert hilbert_basis(ActionSpec(0, (1,))) == frozenset(
        {ExponentVector((1,), (1,))}
    )


def test_basis_weights_1_2():
    expected = frozenset(
        {
            ExponentVector((1, 0), (1, 0)),  # |z1|^2
            ExponentVector((0, 1), (0, 1)),  # |z2|^2
            ExponentVector((2, 0), (0, 1)),  # z1^2 zbar2
            ExponentVector((0, 1), (2, 0)),  # z2 zbar1^2
        }
    )
    assert hilbert_basis(ActionSpec(0, (1, 2))) == expected


def test_basis_weights_1_1():
    expected = frozenset(
        {
            ExponentVector((1, 0), (1, 0)),
            ExponentVector((0, 1), (0, 1)),
            ExponentVector((1, 0), (0, 1)),
            ExponentVector((0, 1), (1, 0)),
        }
    )
    assert hilbert_basis(ActionSpec(0, (1, 1))) == expected


@pytest.mark.parametrize(
    "weights",
    [(1,), (1, 1), (1, 2), (2, 3), (3, 4), (1, 4), (1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 3)],
)
def test_basis_matches_box_enumeration_oracle(weights):
    assert hilbert_basis(ActionSpec(0, weights)) == box_basis_oracle(weights)


@pytest.mark.parametrize("weights", [(1, 2), (2, 3), (3, 5), (2, 2, 3), (1, 2, 4)])
def test_basis_structural_properties(weights):
    spec = ActionSpec(0, weights)
    basis = hilbert_basis(spec)
    cap = max(weights)
    for e in basis:
        assert is_invariant_exponent(spec, e)
        assert any(e.key())
        assert e.conjugate() in basis
        assert circle_weight(spec, e.conjugate()) == -circle_weight(spec, e)
        assert max(e.key()) <= cap
    for j in range(1, spec.m + 1):
        assert abs2_exponent(spec.m, j) in basis
    # pairwise incomparable under componentwise <=
    for a in basis:
        for b in basis:
            if a != b:
                assert not dominates(a, b)


def test_basis_mixed_weights_has_cross_terms():
    # weights (2, 3): the non-diagonal part must be z1^3 zbar2^2 and its
    # conjugate, nothing else.
    basis = hilbert_basis(ActionSpec(0, (2, 3)))
    off_diag = {e for e in basis if e.holomorphic != e.antiholomorphic}
    assert off_diag == {
        ExponentVector((3, 0), (0, 2)),
        ExponentVector((0, 2), (3, 0)),
    }


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_basis_equals_box_oracle_random(raw):
    shared = math.gcd(*raw)
    weights = tuple(w // shared for w in raw)
    assert hilbert_basis(ActionSpec(0, weights)) == box_basis_oracle(weights)


@pytest.mark.parametrize("top, size", [(6, 210), (7, 559)])
def test_basis_size_of_consecutive_weights(top, size):
    assert len(hilbert_basis(ActionSpec(0, tuple(range(1, top + 1))))) == size


def test_basis_with_a_large_weight_ratio():
    assert hilbert_basis(ActionSpec(0, (1, 1000))) == frozenset(
        {
            ExponentVector((1, 0), (1, 0)),
            ExponentVector((0, 1), (0, 1)),
            ExponentVector((1000, 0), (0, 1)),  # z1^1000 zbar2
            ExponentVector((0, 1), (1000, 0)),
        }
    )


def test_basis_refuses_past_its_work_bound_quickly():
    start = time.perf_counter()
    with pytest.raises(TooManyCandidates, match="weights \\[1, 10000000\\]"):
        hilbert_basis(ActionSpec(0, (1, 10**7)))
    assert time.perf_counter() - start < 1.0


def test_basis_refuses_past_its_comparison_bound(monkeypatch):
    monkeypatch.setattr(invariants, "MAX_BASIS_COMPARISONS", 1000)
    with pytest.raises(TooManyCandidates, match="domination comparisons"):
        hilbert_basis(ActionSpec(0, tuple(range(1, 8))))


# Each exponent sits in a field of max(weights).bit_length() + 1 bits, so a
# largest weight of 2^k - 1 or 2^k lies on either side of a change of width.


@pytest.mark.parametrize("weights", [(1, 7), (5, 7), (1, 8), (3, 8), (2, 3, 7)])
def test_basis_at_field_width_edges_matches_box_oracle(weights):
    assert hilbert_basis(ActionSpec(0, weights)) == box_basis_oracle(weights)


@pytest.mark.parametrize(
    "weights, size",
    [
        ((3, 4, 8), 13),
        ((1, 2, 4, 8), 30),
        ((1, 15, 16), 39),
        ((7, 8, 15, 16), 172),
        ((1, 255), 4),
        ((1, 256), 4),
    ],
)
def test_basis_size_at_field_width_edges(weights, size):
    assert len(hilbert_basis(ActionSpec(0, weights))) == size


def test_basis_refusal_reports_the_work_done(monkeypatch):
    monkeypatch.setattr(invariants, "MAX_BASIS_COMPARISONS", 1000)
    with pytest.raises(TooManyCandidates) as refused:
        hilbert_basis(ActionSpec(0, tuple(range(1, 8))))
    assert str(refused.value) == (
        "weights [1, 2, 3, 4, 5, 6, 7]: by degree 5 the Hilbert basis completion grew "
        "315 vectors and made 1013 domination comparisons, against bounds of 100000 and 1000"
    )


# Equal weights: the basis is completed over the distinct weights and
# expanded within each class of equal weight.


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2)])
def test_basis_with_equal_weights_matches_box_oracle(weights):
    assert hilbert_basis(ActionSpec(0, weights)) == box_basis_oracle(weights)


def permuted(e, perm):
    return ExponentVector(
        tuple(e.holomorphic[i] for i in perm), tuple(e.antiholomorphic[i] for i in perm)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permuting_the_weights_permutes_the_basis(data):
    # A pool of at most three values, so that most draws repeat a weight.
    pool = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    raw = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    shared = math.gcd(*raw)
    weights = tuple(w // shared for w in raw)
    perm = data.draw(st.permutations(range(len(weights))))
    basis = hilbert_basis(ActionSpec(0, weights))
    moved = hilbert_basis(ActionSpec(0, tuple(weights[i] for i in perm)))
    assert moved == {permuted(e, perm) for e in basis}


@pytest.mark.parametrize(
    "weights, size",
    [
        ((1,) * 40, 1600),
        ((1, 1, 1, 1, 1, 1, 7), 1621),
        ((2, 2, 2, 3, 3, 3, 5, 5), 1162),
        ((1, 1, 1, 2, 2, 2, 3, 3, 3), 405),
        ((3, 1, 2, 1, 3, 2), 104),
    ],
)
def test_basis_size_with_equal_weights(weights, size):
    assert len(hilbert_basis(ActionSpec(0, weights))) == size


def test_basis_expansion_is_refused_up_front():
    # The pairs z^K zbar_13, one for each split K of 12 into twelve parts,
    # number C(23, 11) = 1,352,078; they are counted, not built.
    weights = (1,) * 12 + (12,)
    start = time.perf_counter()
    with pytest.raises(TooManyCandidates) as refused:
        hilbert_basis(ActionSpec(0, weights))
    assert time.perf_counter() - start < 1.0
    assert str(list(weights)) in str(refused.value)


def test_basis_expansion_bound_counts_conjugate_pairs(monkeypatch):
    # 1621 elements: the 7 |z_j|^2 and 807 conjugate pairs.
    weights = (1, 1, 1, 1, 1, 1, 7)
    monkeypatch.setattr(invariants, "MAX_BASIS_CANDIDATES", 807)
    assert len(hilbert_basis(ActionSpec(0, weights))) == 1621
    monkeypatch.setattr(invariants, "MAX_BASIS_CANDIDATES", 806)
    with pytest.raises(TooManyCandidates) as refused:
        hilbert_basis(ActionSpec(0, weights))
    assert str(refused.value) == (
        "weights [1, 1, 1, 1, 1, 1, 7]: the Hilbert basis has 807 conjugate pairs "
        "of elements, against a bound of 806"
    )


# ---------------------------------------------------------------------------
# realize_generators
# ---------------------------------------------------------------------------


def test_generators_single_unit_weight():
    gens = realize_generators(hilbert_basis(ActionSpec(0, (1,))))
    assert len(gens) == 1
    assert gens[0].part == PART_ABS2
    assert gens[0].exponents == ExponentVector((1,), (1,))


def test_generators_weights_1_2_order_and_parts():
    gens = realize_generators(hilbert_basis(ActionSpec(0, (1, 2))))
    assert [g.part for g in gens] == [PART_ABS2, PART_ABS2, PART_RE, PART_IM]
    assert gens[0].exponents == ExponentVector((1, 0), (1, 0))
    assert gens[1].exponents == ExponentVector((0, 1), (0, 1))
    # both halves of the conjugate pair collapse onto one representative
    assert gens[2].exponents == ExponentVector((2, 0), (0, 1))
    assert gens[3].exponents == ExponentVector((2, 0), (0, 1))


def test_generators_empty_basis():
    assert realize_generators(frozenset()) == []


def test_generator_json_carries_part():
    gens = realize_generators(hilbert_basis(ActionSpec(0, (1, 2))))
    assert gens[2].to_json() == {"k": [2, 0], "kbar": [0, 1], "part": "re"}


@pytest.mark.parametrize("weights", [(1, 1), (2, 3), (1, 2, 3), (2, 2, 3, 4, 6)])
def test_generators_abs2_first_then_conjugate_pairs(weights):
    spec = ActionSpec(0, weights)
    basis = hilbert_basis(spec)
    gens = realize_generators(basis)
    m = spec.m
    for j in range(1, m + 1):
        assert gens[j - 1].part == PART_ABS2
        assert gens[j - 1].exponents == abs2_exponent(m, j)
    rest = gens[m:]
    assert len(rest) == len(basis) - m
    for re_gen, im_gen in zip(rest[::2], rest[1::2]):
        assert (re_gen.part, im_gen.part) == (PART_RE, PART_IM)
        assert re_gen.exponents == im_gen.exponents
        assert re_gen.exponents.key() > re_gen.exponents.conjugate().key()


def reference_generators(basis):
    """The generators by the concatenated-key rule: a pair's representative
    is the member e with e.key() > e.conjugate().key(), representatives are
    sorted by (degree, key()), and |z_j|^2 by the position j."""
    abs2 = [InvariantGenerator(e, PART_ABS2) for e in basis if e == e.conjugate()]
    abs2.sort(key=lambda g: g.exponents.holomorphic.index(1))
    reps = sorted(
        (e for e in basis if e.key() > e.conjugate().key()), key=lambda e: (e.degree, e.key())
    )
    return abs2 + [InvariantGenerator(e, part) for e in reps for part in (PART_RE, PART_IM)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generators_match_the_concatenated_key_rule(data):
    # Any conjugation-closed set of exponent vectors, not only Hilbert bases.
    m = data.draw(st.integers(1, 4))
    side = st.tuples(*[st.integers(0, 3)] * m)
    units = data.draw(st.sets(st.integers(1, m)))
    pairs = data.draw(st.lists(st.tuples(side, side).filter(lambda p: p[0] != p[1])))
    basis = {abs2_exponent(m, j) for j in units}
    basis |= {ExponentVector(k, kbar) for k, kbar in pairs}
    basis |= {e.conjugate() for e in basis}
    assert realize_generators(frozenset(basis)) == reference_generators(basis)


def test_generators_refuse_a_self_conjugate_element_that_is_no_unit():
    basis = frozenset({ExponentVector((2, 0), (2, 0)), ExponentVector((0, 1), (0, 1))})
    with pytest.raises(ValueError, match="single"):
        realize_generators(basis)


@pytest.mark.parametrize(
    "value, field",
    [
        (ExponentVector((2, 0), (0, 1)), "holomorphic"),
        (InvariantGenerator(ExponentVector((2, 0), (0, 1)), PART_RE), "part"),
        (InvariantGenerator(abs2_exponent(2, 1), PART_ABS2), "exponents"),
    ],
)
def test_value_types_are_frozen_slotted_copyable_and_picklable(value, field):
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    assert not hasattr(value, "__dict__")
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)


def test_trusted_exponent_vector_equals_the_checked_one():
    for k, kbar in [((2, 0), (0, 1)), ((1,), (1,)), ((0, 0, 3), (1, 2, 0))]:
        trusted = ExponentVector._trusted(k, kbar)
        assert trusted == ExponentVector(k, kbar)
        assert hash(trusted) == hash(ExponentVector(k, kbar))
        assert {trusted} == {ExponentVector(k, kbar)}


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_zero_vector_is_empty():
    spec = ActionSpec(0, (1, 2))
    basis = hilbert_basis(spec)
    assert decompose(spec, ExponentVector((0, 0), (0, 0)), basis) == {}


def test_decompose_modulus_product():
    spec = ActionSpec(0, (1, 2))
    basis = hilbert_basis(spec)
    target = ExponentVector((2, 1), (2, 1))  # |z1|^4 |z2|^2
    result = decompose(spec, target, basis)
    assert result is not None
    total = [0] * 4
    for elem, count in result.items():
        assert elem in basis
        total = [t + count * x for t, x in zip(total, elem.key())]
    assert tuple(total) == target.key()


def test_decompose_forced_double():
    spec = ActionSpec(0, (1, 2))
    basis = hilbert_basis(spec)
    result = decompose(spec, ExponentVector((4, 0), (0, 2)), basis)
    assert result == {ExponentVector((2, 0), (0, 1)): 2}


def test_decompose_rejects_non_invariant():
    spec = ActionSpec(0, (1, 2))
    with pytest.raises(NotInvariant):
        decompose(spec, ExponentVector((1, 0), (0, 1)), hilbert_basis(spec))


def test_decompose_reports_failure_definitively():
    spec = ActionSpec(0, (1, 2))
    # remove the pair generators: pure modulus elements cannot reach them
    crippled = frozenset(
        e for e in hilbert_basis(spec) if e.holomorphic == e.antiholomorphic
    )
    assert decompose(spec, ExponentVector((2, 0), (0, 1)), crippled) is None


def test_decompose_checks_basis_length_on_every_call():
    basis = hilbert_basis(ActionSpec(0, (1, 2)))
    assert decompose(ActionSpec(0, (1, 2)), ExponentVector((2, 0), (0, 1)), basis) is not None
    with pytest.raises(LengthMismatch):
        decompose(ActionSpec(0, (1, 1, 1)), ExponentVector((1, 0, 0), (0, 1, 0)), basis)


def test_decompose_does_not_recurse_per_part():
    # 5,000 parts of |z1|^2 under a recursion limit of 120: the search keeps
    # its frames on an explicit stack, not on the interpreter's.
    spec = ActionSpec(0, (1, 2))
    basis = hilbert_basis(spec)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        result = decompose(spec, ExponentVector((5000, 0), (5000, 0)), basis)
    finally:
        sys.setrecursionlimit(limit)
    assert result == {abs2_exponent(2, 1): 5000}


def first_decomposition(basis, target):
    """The first decomposition a plain recursive search finds, trying the
    elements by decreasing degree, then by exponent tuple, and never an
    element before the one last taken; None if there is none."""
    elems = sorted(basis, key=lambda b: (-b.degree, b.key()))

    def search(remaining, start):
        if not any(remaining):
            return []
        for i in range(start, len(elems)):
            b = elems[i].key()
            if all(r >= x for r, x in zip(remaining, b)):
                rest = search(tuple(r - x for r, x in zip(remaining, b)), i)
                if rest is not None:
                    return [elems[i]] + rest
        return None

    found = search(target.key(), 0)
    return None if found is None else Counter(found)


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3), (1, 1, 2)])
def test_decompose_returns_the_first_decomposition_in_search_order(weights):
    # The walk must pick the same decomposition as the recursive search and
    # fail where it fails: on the full basis, on the basis without |z1|^2
    # (where the search backs out of dead ends and then succeeds), and on
    # the |z_j|^2 alone (where most targets have no decomposition).
    spec = ActionSpec(0, weights)
    basis = hilbert_basis(spec)
    without_abs2_1 = basis - {abs2_exponent(spec.m, 1)}
    moduli = frozenset(e for e in basis if e.holomorphic == e.antiholomorphic)
    for subset in (basis, without_abs2_1, moduli):
        for e in invariant_vectors_up_to(weights, 8):
            assert decompose(spec, e, subset) == first_decomposition(subset, e), e


def test_decompose_backs_out_of_a_dead_end():
    # Without |z1|^2, |z1|^2 |z2|^2 over (1, 1) first takes |z2|^2, is left
    # with |z1|^2, backs out, and succeeds as (z2 zbar1) (z1 zbar2).
    spec = ActionSpec(0, (1, 1))
    basis = hilbert_basis(spec) - {abs2_exponent(2, 1)}
    result = decompose(spec, ExponentVector((1, 1), (1, 1)), basis)
    assert result == {ExponentVector((0, 1), (1, 0)): 1, ExponentVector((1, 0), (0, 1)): 1}


_ZERO_BASIS_DECOMPOSITIONS = """
from circleact import ActionSpec, ExponentVector, decompose, hilbert_basis
spec = ActionSpec(0, (1, 2))
target, zero = ExponentVector((2, 0), (0, 1)), ExponentVector((0, 0), (0, 0))
print(decompose(spec, target, frozenset({ExponentVector((1, 0), (1, 0)), zero})))
print(decompose(spec, target, hilbert_basis(spec) | {zero}) == {target: 1})
"""


def test_decompose_leaves_out_a_zero_basis_element():
    # Taking a zero element leaves the same (remaining, start) frame, so a
    # search that tries it never stops: run it in a child process that the
    # suite can time out instead of hanging.
    src = str(Path(invariants.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run(
        [sys.executable, "-c", _ZERO_BASIS_DECOMPOSITIONS],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["None", "True"]


@pytest.mark.parametrize("weights", [(1,), (1, 1), (1, 2), (2, 3), (1, 2, 3)])
def test_basis_generates_all_low_degree_invariants(weights):
    spec = ActionSpec(0, weights)
    basis = hilbert_basis(spec)
    bound = 2 * max(weights) + 4
    for e in invariant_vectors_up_to(weights, bound):
        assert decompose(spec, e, basis) is not None, e


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_basis_conjugation_closed_random(data):
    weights = tuple(
        data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    )
    shared = math.gcd(*weights)
    spec = ActionSpec(0, tuple(w // shared for w in weights))
    basis = hilbert_basis(spec)
    assert {e.conjugate() for e in basis} == set(basis)
