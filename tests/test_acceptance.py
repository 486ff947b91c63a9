"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import cmath
import json
import math
import time
from random import Random

from circleact import (
    ActionSpec,
    DISTINGUISHED_ID,
    ExponentVector,
    INFINITE,
    check_homogeneity,
    check_invariance,
    check_m2_membership,
    evaluate_hilbert_map,
    face_table,
    hasse_edges,
    hilbert_basis,
    orbit_strata,
    realize_generators,
    recover_weights,
    roundtrip,
)
from circleact.cli import main as cli_main
from oracles import (
    abs2_exponent,
    conjugate,
    decompose,
    dominates,
    effective_multisets,
    invariant_vectors_up_to,
    is_invariant_exponent,
)


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def unit_polydisc_point(rng, m):
    return tuple(
        rng.random() * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(m)
    )


def test_criterion_1_single_unit_weight():
    spec = ActionSpec(0, (1,))
    generators = realize_generators(hilbert_basis(spec))
    ok = len(generators) == 1 and generators[0].part == "abs2"
    ok = ok and generators[0].exponents == ExponentVector((1,), (1,))
    diagram = orbit_strata(spec)
    ok = ok and [(s.order, s.dim) for s in diagram.strata] == [(1, 1), (INFINITE, 0)]
    report(1, ok, "weights [1]: one generator |z1|^2, two strata (orders 1, inf)")


def test_criterion_2_two_coordinates_and_image_relation():
    spec = ActionSpec(0, (1, 2))
    generators = realize_generators(hilbert_basis(spec))
    expected = [
        (ExponentVector((1, 0), (1, 0)), "abs2"),
        (ExponentVector((0, 1), (0, 1)), "abs2"),
        (ExponentVector((2, 0), (0, 1)), "re"),
        (ExponentVector((2, 0), (0, 1)), "im"),
    ]
    ok = [(g.exponents, g.part) for g in generators] == expected

    rng = Random(1202)
    membership_failures = 0
    relation_failures = 0
    for _ in range(1000):
        y = evaluate_hilbert_map(generators, unit_polydisc_point(rng, 2))
        if not check_m2_membership(1, 2, y, 1e-9):
            membership_failures += 1
        rhs = y[0] ** 2 * y[1]
        if abs(y[2] ** 2 + y[3] ** 2 - rhs) > 1e-9 * (1 + abs(rhs)):
            relation_failures += 1
    ok = ok and membership_failures == 0 and relation_failures == 0
    report(
        2,
        ok,
        "weights [1,2]: generators p1..p4; 1000 sampled images satisfy "
        "y3^2 + y4^2 = y1^2 y2 within 1e-9",
    )


def test_criterion_3_weights_1_2_3_goldens():
    spec = ActionSpec(0, (1, 2, 3))
    rows = [(set(r.indices), r.stabilizer_order, r.codim) for r in face_table(spec)]
    ok = rows == [
        ({1, 2, 3}, 1, 0),
        ({1, 2}, 1, 2),
        ({1, 3}, 1, 2),
        ({2, 3}, 1, 2),
        ({1}, 1, 4),
        ({2}, 2, 4),
        ({3}, 3, 4),
    ]
    diagram = orbit_strata(spec)
    ok = ok and {(s.order, s.dim) for s in diagram.strata if s.order != INFINITE} == {
        (1, 5),
        (2, 1),
        (3, 1),
    }
    ok = ok and hasse_edges(diagram) == {
        ("order:2", "order:1"),
        ("order:3", "order:1"),
    }
    ok = ok and recover_weights(diagram) == (1, 2, 3)
    report(3, ok, "weights [1,2,3]: face table, strata, Hasse edges, recovery")


def test_criterion_4_weights_2_2_3_4_6_goldens():
    diagram = orbit_strata(ActionSpec(0, (2, 2, 3, 4, 6)))
    dims = {s.order: s.dim for s in diagram.strata if s.order != INFINITE}
    codims = {d: dims[1] - dim for d, dim in dims.items()}
    ok = codims == {1: 0, 2: 2, 3: 6, 4: 8, 6: 8}
    ok = ok and hasse_edges(diagram) == {
        ("order:2", "order:1"),
        ("order:3", "order:1"),
        ("order:4", "order:2"),
        ("order:6", "order:2"),
        ("order:6", "order:3"),
    }
    weights = recover_weights(diagram)
    ok = ok and weights == (2, 2, 3, 4, 6)
    counts = {d: weights.count(d) for d in (1, 2, 3, 4, 6)}
    ok = ok and counts == {1: 0, 2: 2, 3: 1, 4: 1, 6: 1}
    report(
        4,
        ok,
        "weights [2,2,3,4,6]: codims {0,2,6,8,8}, five Hasse edges, "
        "recovered multiplicities (0,2,1,1,1)",
    )


def test_criterion_5_roundtrip_property():
    started = time.monotonic()
    failures = 0
    for weights in effective_multisets(3, 12):
        if not roundtrip(ActionSpec(0, weights)):
            failures += 1
    rng = Random(20260810)
    for _ in range(10000):
        m = rng.randint(1, 6)
        raw = [rng.randint(1, 30) for _ in range(m)]
        shared = math.gcd(*raw)
        spec = ActionSpec(rng.randint(0, 4), tuple(w // shared for w in raw))
        if not roundtrip(spec):
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed <= 60.0
    report(
        5,
        ok,
        f"roundtrip exhaustive (m<=3, w<=12) + 10000 random specs: "
        f"{failures} failures in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_6_hilbert_basis_properties():
    failures = 0
    for weights in effective_multisets(3, 8):
        spec = ActionSpec(0, weights)
        basis = hilbert_basis(spec)
        for e in basis:
            if not is_invariant_exponent(spec, e):
                failures += 1
            if conjugate(e) not in basis:
                failures += 1
            if any(e != f and dominates(e, f) for f in basis):
                failures += 1
        for j in range(1, spec.m + 1):
            if abs2_exponent(spec.m, j) not in basis:
                failures += 1
        for e in invariant_vectors_up_to(weights, 2 * max(weights) + 4):
            if decompose(spec, e, basis) is None:
                failures += 1
    report(
        6,
        failures == 0,
        "Hilbert bases (m<=3, w<=8): invariant, incomparable, conjugation-"
        f"closed, contain |z_j|^2, generate all low-degree invariants "
        f"({failures} failures)",
    )


def test_criterion_7_numeric_invariance_and_homogeneity():
    failures = 0
    worst = 0.0
    for weights in [(1,), (1, 2), (1, 2, 3), (2, 3), (2, 2, 3, 4, 6)]:
        spec = ActionSpec(0, weights)
        generators = realize_generators(hilbert_basis(spec))
        inv = check_invariance(spec, generators, trials=1000, seed=77, tol=1e-9)
        hom = check_homogeneity(spec, generators, trials=1000, seed=78, tol=1e-9)
        failures += inv["failures"] + hom["failures"]
        worst = max(worst, inv["max_err"], hom["max_err"])
    report(
        7,
        failures == 0,
        f"1000 trials x 5 specs: invariance and homogeneity within relative "
        f"1e-9 ({failures} failures, max err {worst:.2e})",
    )


def test_criterion_8_recovery_rejects_malformed_input(tmp_path, capsys):
    negative = {
        "ambient_dim": 6,
        "strata": [
            {"id": "order:1", "order": 1, "dim": 5},
            {"id": "order:2", "order": 2, "dim": 1},
            {"id": "order:4", "order": 4, "dim": 1},
            {"id": "order:6", "order": 6, "dim": 1},
            {"id": DISTINGUISHED_ID, "order": "inf", "dim": 0},
        ],
        "closure": [
            ["order:2", "order:1"],
            ["order:4", "order:1"],
            ["order:6", "order:1"],
            ["order:4", "order:2"],
            ["order:6", "order:2"],
            [DISTINGUISHED_ID, "order:1"],
            [DISTINGUISHED_ID, "order:2"],
            [DISTINGUISHED_ID, "order:4"],
            [DISTINGUISHED_ID, "order:6"],
        ],
    }
    ineffective = {
        "ambient_dim": 2,
        "strata": [
            {"id": "order:2", "order": 2, "dim": 1},
            {"id": DISTINGUISHED_ID, "order": "inf", "dim": 0},
        ],
        "closure": [[DISTINGUISHED_ID, "order:2"]],
    }

    neg_path = tmp_path / "negative.json"
    neg_path.write_text(json.dumps(negative))
    code_neg = cli_main(["recover", "--diagram", str(neg_path)])
    err_neg = capsys.readouterr().err

    bad_path = tmp_path / "gcd2.json"
    bad_path.write_text(json.dumps(ineffective))
    code_bad = cli_main(["recover", "--diagram", str(bad_path)])
    err_bad = capsys.readouterr().err

    ok = (
        code_neg == 2
        and "NegativeMultiplicity" in err_neg
        and code_bad == 2
        and "NotEffective" in err_bad
    )
    report(
        8,
        ok,
        "malformed diagrams rejected: NegativeMultiplicity and NotEffective, "
        "both exit code 2",
    )
