"""Independent oracles for the benchmark's output checks.

Every check takes plain data (tuples, dicts, JSON text) and returns a list
of problems; an empty list means the output is right.  Nothing here imports
circleact, so a defect in the package cannot hide inside its own oracle.
"""

from __future__ import annotations

import hashlib
import math

INF = "inf"


def digest(text: str) -> str:
    """Short sha256 of a canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _first_dominating_pair(vectors: list[tuple[int, ...]]):
    """A pair (big, small) of distinct vectors with big >= small entrywise.

    Packs each vector into one integer with a guard bit above every field,
    so a single subtraction compares all entries at once: the guard bits
    all survive `(big | guard) - small` exactly when big >= small.
    """
    if not vectors:
        return None
    width = max(max(v) for v in vectors).bit_length() + 1
    guard = sum(1 << (i * width + width - 1) for i in range(len(vectors[0])))
    packed = [sum(x << (i * width) for i, x in enumerate(v)) for v in vectors]
    order = sorted(range(len(vectors)), key=lambda i: sum(vectors[i]))
    for pos, small in enumerate(order):
        low = packed[small]
        for big in order[pos + 1 :]:
            if ((packed[big] | guard) - low) & guard == guard:
                return vectors[big], vectors[small]
    return None


def hilbert_problems(
    weights: tuple[int, ...],
    basis: list[tuple[tuple[int, ...], tuple[int, ...]]],
    generators_json: str,
    expected_digest: str,
) -> list[str]:
    """Check a Hilbert basis given as (k, kbar) pairs, and its generators.

    The basis must be invariant, closed under conjugation, contain every
    |z_j|^2 and be an antichain; the generator JSON must match the digest
    recorded for this spec (the basis is unique, so its canonical
    realization is too).
    """
    m = len(weights)
    vecs = sorted({tuple(k) + tuple(kbar) for k, kbar in basis})
    problems = [
        f"element {v} has circle weight != 0"
        for v in vecs
        if sum(a * (v[j] - v[m + j]) for j, a in enumerate(weights)) != 0
    ]
    present = set(vecs)
    problems += [
        f"conjugate of {v} is missing" for v in vecs if v[m:] + v[:m] not in present
    ]
    for j in range(m):
        unit = tuple(1 if i == j else 0 for i in range(m))
        if unit + unit not in present:
            problems.append(f"|z{j + 1}|^2 is missing")
    pair = _first_dominating_pair(vecs)
    if pair is not None:
        problems.append(f"{pair[0]} dominates {pair[1]}")
    if digest(generators_json) != expected_digest:
        problems.append(f"generator digest {digest(generators_json)} != {expected_digest}")
    return problems[:5]


def gcd_closure(weights: tuple[int, ...]) -> set[int]:
    """The weights closed under pairwise gcd: the stabilizer orders."""
    orders = set(weights)
    frontier = set(orders)
    while frontier:
        fresh = {math.gcd(a, b) for a in frontier for b in orders} - orders
        orders |= fresh
        frontier = fresh
    return orders


def expected_poset(trivial_dim: int, weights: tuple[int, ...]):
    """The labelled stratification poset an action must produce.

    Returned as (ambient_dim, {order: dim}, {(below, above)}) with INF for
    the fixed-point stratum: orders are the gcd closure, the order-d stratum
    has dim t + 2 #{j : d | w_j} - 1, and closure is divisibility.
    """
    orders = gcd_closure(weights)
    dims = {d: trivial_dim + 2 * sum(1 for w in weights if w % d == 0) - 1 for d in orders}
    dims[INF] = trivial_dim
    closure = {(d, e) for d in orders for e in orders if d != e and d % e == 0}
    closure |= {(INF, d) for d in orders}
    return trivial_dim + 2 * len(weights), dims, closure


def wire_poset(diagram: dict):
    """The labelled poset of a wire-format diagram, ids replaced by orders."""
    order_of = {s["id"]: s["order"] for s in diagram["strata"]}
    dims = {s["order"]: s["dim"] for s in diagram["strata"]}
    closure = {(order_of.get(a), order_of.get(b)) for a, b in diagram["closure"]}
    return diagram["ambient_dim"], dims, closure


def stratify_problems(
    trivial_dim: int,
    weights: tuple[int, ...],
    diagram: dict,
    recovered: tuple[int, ...],
    hasse: set[tuple[str, str]],
) -> list[str]:
    """Check one stratify -> wire -> recover pass against the gcd oracle."""
    ambient, dims, closure = wire_poset(diagram)
    want_ambient, want_dims, want_closure = expected_poset(trivial_dim, weights)
    problems = []
    if set(dims) != set(want_dims):
        problems.append(f"orders {sorted(map(str, dims))} != gcd closure")
    if ambient != want_ambient:
        problems.append(f"ambient_dim {ambient} != {want_ambient}")
    problems += [
        f"order {d} has dim {dims[d]} != {want_dims[d]}"
        for d in sorted(set(dims) & set(want_dims), key=str)
        if dims[d] != want_dims[d]
    ]
    if closure != want_closure:
        problems.append("closure is not divisibility")
    finite = {d for d in want_dims if d != INF}
    covers = {
        (d, e)
        for d, e in want_closure
        if d in finite and not any((d, c) in want_closure and (c, e) in want_closure for c in finite)
    }
    order_of = {s["id"]: s["order"] for s in diagram["strata"]}
    if {(order_of.get(a), order_of.get(b)) for a, b in hasse} != covers:
        problems.append("hasse edges are not the covering pairs")
    if tuple(recovered) != tuple(sorted(weights)):
        problems.append(f"recovered {list(recovered)} != {sorted(weights)}")
    return problems[:5]


def recovery_outcome(diagram: dict, report: dict | None) -> str:
    """Classify one `recover` answer (None when it exited nonzero) on
    `diagram`: it is certified when the action it names produces exactly
    the input poset."""
    if report is None:
        return "rejected"
    weights = tuple(report["weights"])
    if weights and min(weights) >= 1 and math.gcd(*weights) == 1:
        if expected_poset(report["trivial_dim"], weights) == wire_poset(diagram):
            return "accepted_certified"
    return "accepted_uncertified"


def roundtrip_problems(
    trivial_dim: int,
    weights: tuple[int, ...],
    perturbed: bool,
    stratify_exit: int,
    diagram: dict | None,
    recover_exit: int,
    recover_report: dict | None,
    stderr: str,
) -> list[str]:
    """Check the CLI pipe: stratify is exact; recover is exact when the
    diagram is untouched, and otherwise exits 0 or 2 without a traceback."""
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if stratify_exit != 0 or diagram is None:
        return problems + [f"stratify exited {stratify_exit}"]
    if wire_poset(diagram) != expected_poset(trivial_dim, weights):
        problems.append("stratify output differs from the gcd oracle")
    if perturbed:
        if recover_exit not in (0, 2):
            problems.append(f"recover exited {recover_exit} on a perturbed diagram")
        return problems
    if recover_exit != 0 or recover_report is None:
        return problems + [f"recover exited {recover_exit}"]
    want = {
        "weights": sorted(weights),
        "trivial_dim": trivial_dim,
        "m": len(weights),
        "n": trivial_dim + 2 * len(weights),
    }
    if recover_report != want:
        problems.append(f"recover returned {recover_report}, want {want}")
    return problems


def verify_problems(m: int, trials: int, reports: list[dict]) -> list[str]:
    """Every sampled check ran with its trial count and found no failure."""
    want = {"invariance": trials, "homogeneity": trials, "separation": min(trials, 200)}
    if m == 2:
        want["membership_m2"] = trials
    got = {r["check"]: r["trials"] for r in reports}
    problems = []
    if len(reports) != len(want) or got != want:
        problems.append(f"checks {sorted(got.items())} != {sorted(want.items())}")
    problems += [f"{r['check']} has {r['failures']} failures" for r in reports if r["failures"]]
    return problems
