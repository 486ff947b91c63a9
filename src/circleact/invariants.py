"""Monomial invariants of a weighted circle action.

A monomial z^k zbar^kbar is invariant exactly when its rotation weight
sum_j alpha_j * (k_j - kbar_j) vanishes.  The invariant exponent vectors
form an additive monoid; its unique minimal generating set (Hilbert basis)
is computed here, and each basis element is realized as a real-valued
generator: |z_j|^2 for the self-conjugate ones, real and imaginary parts of
one representative for each conjugate pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import attrgetter, ge, itemgetter, sub

from .action import ActionSpec, integers
from .errors import LengthMismatch, NotInvariant, TooManyCandidates

PART_ABS2 = "abs2"
PART_RE = "re"
PART_IM = "im"
# Work bounds of hilbert_basis: vectors grown over all levels (and conjugate
# pairs built by the expansion over equal weights), and comparisons of a
# grown vector with a recorded minimal element.
MAX_BASIS_CANDIDATES = 100_000
MAX_BASIS_COMPARISONS = 10_000_000


@dataclass(frozen=True, slots=True)
class ExponentVector:
    """Exponents (k_1..k_m, kbar_1..kbar_m) of a monomial z^k zbar^kbar."""

    holomorphic: tuple[int, ...]
    antiholomorphic: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "holomorphic", integers(self.holomorphic, "exponents"))
        object.__setattr__(self, "antiholomorphic", integers(self.antiholomorphic, "exponents"))
        if len(self.holomorphic) != len(self.antiholomorphic):
            raise LengthMismatch(
                f"holomorphic has {len(self.holomorphic)} entries, "
                f"antiholomorphic has {len(self.antiholomorphic)}"
            )
        if min(self.holomorphic + self.antiholomorphic, default=0) < 0:
            raise ValueError("exponents must be non-negative")

    @property
    def m(self) -> int:
        return len(self.holomorphic)

    @property
    def degree(self) -> int:
        return sum(self.holomorphic) + sum(self.antiholomorphic)

    @classmethod
    def _trusted(cls, k: tuple[int, ...], kbar: tuple[int, ...]) -> "ExponentVector":
        """Build from int tuples already known to be valid, skipping the checks."""
        e = object.__new__(cls)
        _set_k(e, k)
        _set_kbar(e, kbar)
        return e

    def conjugate(self) -> "ExponentVector":
        """Swap holomorphic and antiholomorphic exponents."""
        return ExponentVector(self.antiholomorphic, self.holomorphic)

    def key(self) -> tuple[int, ...]:
        """Concatenated exponent tuple; the canonical sort key."""
        return self.holomorphic + self.antiholomorphic

    def to_json(self) -> dict:
        return {"k": list(self.holomorphic), "kbar": list(self.antiholomorphic)}


def abs2_exponent(m: int, j: int) -> ExponentVector:
    """Exponent vector of |z_j|^2 (1-based j) in m complex coordinates;
    acceptance criterion 6 finds each one in the basis."""
    unit = tuple(1 if i == j - 1 else 0 for i in range(m))
    return ExponentVector(unit, unit)


@dataclass(frozen=True, slots=True)
class InvariantGenerator:
    """A real-valued generator: |z_j|^2, or Re/Im of one invariant monomial."""

    exponents: ExponentVector
    part: str

    def __post_init__(self):
        if self.part not in (PART_ABS2, PART_RE, PART_IM):
            raise ValueError(f"unknown part {self.part!r}")
        if self.part == PART_ABS2:
            e = self.exponents
            if e.holomorphic != e.antiholomorphic or sorted(e.holomorphic) != [0] * (e.m - 1) + [1]:
                raise ValueError("abs2 generators must be a single |z_j|^2 exponent vector")

    @classmethod
    def _trusted(cls, e: ExponentVector, part: str) -> "InvariantGenerator":
        g = object.__new__(cls)
        _set_exponents(g, e)
        _set_part(g, part)
        return g

    @property
    def degree(self) -> int:
        return self.exponents.degree

    def to_json(self) -> dict:
        data = self.exponents.to_json()
        data["part"] = self.part
        return data


# Frozen-slot setters, bound once: a per-object lookup costs most of what _trusted saves.
_set_k, _set_kbar = ExponentVector.holomorphic.__set__, ExponentVector.antiholomorphic.__set__
_set_exponents, _set_part = InvariantGenerator.exponents.__set__, InvariantGenerator.part.__set__


def _check_length(spec: ActionSpec, e: ExponentVector) -> None:
    if e.m != spec.m:
        raise LengthMismatch(f"exponent vector has {e.m} coordinates, action has {spec.m}")


def circle_weight(spec: ActionSpec, e: ExponentVector) -> int:
    """Rotation weight sum_j alpha_j * (k_j - kbar_j) of the monomial."""
    _check_length(spec, e)
    return sum(
        a * (k - kbar)
        for a, k, kbar in zip(spec.weights, e.holomorphic, e.antiholomorphic)
    )


def is_invariant_exponent(spec: ActionSpec, e: ExponentVector) -> bool:
    """True iff the monomial with these exponents is circle-invariant;
    acceptance criterion 6 checks every basis element with it."""
    return circle_weight(spec, e) == 0


def hilbert_basis(spec: ActionSpec) -> frozenset[ExponentVector]:
    """Minimal additive generating set of the invariant exponent monoid.

    Coordinates of equal weight are interchangeable, so the basis is
    completed over the distinct weights (:func:`_complete`) and then
    expanded.  Summing the exponents within each class of equal weight maps
    the invariant monoid of the spec onto that of its distinct weights, and
    x is irreducible iff its image is.  If the image splits as Y + Z, the
    entries of x can be split the same way within each class, since the
    class sums of Y are at most those of x; both parts are invariant,
    because invariance depends on the class sums alone, so x splits too.
    Conversely, if x = y + z with y, z nonzero, the map is additive and
    sends nonzero vectors to nonzero ones, so the image splits.  The basis
    is therefore exactly the preimage of the basis over the distinct
    weights: an aggregate element (K, Kbar) expands into every split of
    each K_w into mu_w non-negative parts, one per coordinate of weight w,
    times every split of each Kbar_w; the aggregate |z_w|^2 expands into
    every z_i zbar_j with i and j in the class.  The completion runs over
    the distinct weights in order of first appearance and returns each
    aggregate element on the spec's coordinates, every coordinate holding
    its class sum; the expansion then splits one class of repeated weight
    at a time.  With all weights distinct it makes no pass, and the
    completion runs over the spec's own order.

    The completion refuses with :class:`TooManyCandidates` past its work
    bounds.  The expansion is counted from binomials before any element is
    built: it is refused when the basis would hold more than
    MAX_BASIS_CANDIDATES conjugate pairs, as a completion over all m
    coordinates would grow at least one vector per pair.  Every refusal
    names the spec's own weights.
    """
    m = spec.m
    weights = spec.weights
    classes: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        classes.setdefault(w, []).append(i)
    # (k, kbar) on the spec's coordinates, each coordinate holding the sum
    # over its class until the expansion splits that sum over the class.
    solved = _complete(tuple(classes), weights)
    repeated = [positions for positions in classes.values() if len(positions) > 1]

    ways = [1] * len(solved)
    for positions in repeated:
        p, bars = positions[0], len(positions) - 1
        ways = [
            c * comb(k[p] + bars, bars) * comb(kbar[p] + bars, bars)
            for c, (k, kbar) in zip(ways, solved)
        ]
    pairs = sum(ways) + sum(len(positions) * (len(positions) - 1) // 2 for positions in repeated)
    if pairs > MAX_BASIS_CANDIDATES:
        raise TooManyCandidates(
            f"weights {list(weights)}: the Hilbert basis has {pairs} conjugate pairs "
            f"of elements, against a bound of {MAX_BASIS_CANDIDATES}"
        )

    splits_of: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def splits(n: int, mu: int) -> list[tuple[int, ...]]:
        """Every tuple of mu non-negative ints summing to n."""
        if mu == 1:
            return [(n,)]
        if (n, mu) not in splits_of:
            splits_of[n, mu] = [
                (head,) + rest for head in range(n, -1, -1) for rest in splits(n - head, mu - 1)
            ]
        return splits_of[n, mu]

    def spread(v: tuple[int, ...], positions: list[int], place: itemgetter) -> list[tuple]:
        """v with the class sum it holds at `positions` split over them."""
        return [place(v + part) for part in splits(v[positions[0]], len(positions))]

    for positions in repeated:
        # Reads v + part back as v with part written over the class.
        place = itemgetter(*(m + positions.index(i) if i in positions else i for i in range(m)))
        solved = [
            (a, b)
            for k, kbar in solved
            for bs in (spread(kbar, positions, place),)
            for a in spread(k, positions, place)
            for b in bs
        ]

    new = ExponentVector._trusted
    units = [(0,) * j + (1,) + (0,) * (m - j - 1) for j in range(m)]
    basis = [new(units[i], units[j]) for group in classes.values() for i in group for j in group]
    basis += [new(k, kbar) for k, kbar in solved]
    basis += [new(kbar, k) for k, kbar in solved]
    return frozenset(basis)


def _complete(
    weights: tuple[int, ...], spec_weights: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The minimal invariant (k, kbar) other than |z_j|^2, one per conjugate pair.

    The completion runs over the distinct `weights`.  Each solved vector is
    unpacked onto the coordinates of `spec_weights`: every coordinate of
    weight w holds the entry for w.

    The m elements |z_j|^2 are minimal, and every other minimal element has
    k_j * kbar_j = 0 for each j, or it would dominate |z_j|^2.  So the rest
    of the basis is the set of nonzero signed vectors s = k - kbar with
    sum_j alpha_j * s_j = 0 that are minimal under conformal order
    (|s_j| <= |t_j| with equal signs), found by a completion over them:

    - Half generation: only the member of each conjugate pair whose first
      nonzero entry s_j is positive is grown, from +e_j, stepping at
      coordinates i > j or at j upward; its conjugate is -s.  Each step
      moves one entry away from zero, against the sign of the current
      rotation weight, so the greedy path to any such minimal s stays
      below s and is never pruned.
    - Level order: level d holds the vectors of sum_j |s_j| = d, and a
      level's solutions are recorded before the next level is checked.
    - Domination index: a child grown at coordinate i to value v has a
      parent that dominated nothing, so it can only dominate a recorded
      minimal s (or its conjugate -s) whose entry at i is exactly v.
      Minimals are indexed by (i, s_i) and (i, -s_i), and a child is
      compared only with its (i, v) bucket.
    - Per-side caps: the positive entries and the negative entries of a
      minimal s each sum to at most max(weights) (Lambert 1987, a
      sharpening of Huet's per-entry bound), so no vector grows past that.

    Each signed vector is packed into one int of 2m fields of
    b = max(weights).bit_length() + 1 bits: field i holds k_i and field
    m + i holds kbar_i.  A step at coordinate i adds the unit of field i
    (upward) or of field m + i (downward), and is allowed only while the
    opposite field is zero, which keeps k_i * kbar_i = 0.  The per-side caps
    keep every field at most max(weights) < 2^(b - 1), so the top bit of
    each field is a guard that is never set.  With disjoint supports,
    conformal order is fieldwise order of (k, kbar), and t <= c fieldwise
    iff ((c | G) - t) & G == G, where G holds every guard bit: setting a
    guard before subtracting a smaller field keeps it, a larger field
    borrows it away, and no borrow crosses into the next field.  The
    (i, v) bucket of a child is keyed by the child's grown field alone,
    c & mask_f, which is v shifted into field f.  Only solved vectors are
    unpacked into exponent tuples.

    The completion refuses with :class:`TooManyCandidates`, naming
    `spec_weights`, when it would grow more than MAX_BASIS_CANDIDATES
    vectors, or once it has made MAX_BASIS_COMPARISONS domination
    comparisons.  The first bound stops large weight ratios: weights
    (1, r) have a minimal element of degree r + 1, so they take r levels.
    The second stops many coordinates of small weights, whose minimal
    elements crowd the (i, v) buckets.
    """
    m = len(weights)
    cap = max(weights)
    b = cap.bit_length() + 1
    half = b * m
    shifts = range(0, 2 * half, b)
    field = (1 << b) - 1
    masks = [field << shift for shift in shifts]
    guards = sum(1 << (shift + b - 1) for shift in shifts)
    low_half = (1 << half) - 1
    field_of = {w: shifts[c] for c, w in enumerate(weights)}
    unpack = [field_of[w] for w in spec_weights]
    unpack += [shift + half for shift in unpack]
    n = len(spec_weights)
    # Steps at coordinate i: (unit, mask of the grown field, mask of the
    # opposite field, change of rotation weight); upward grows k_i, downward kbar_i.
    up = [(1 << shifts[i], masks[i], masks[m + i], w) for i, w in enumerate(weights)]
    down = [(1 << shifts[m + i], masks[m + i], masks[i], -w) for i, w in enumerate(weights)]
    # s -> (rotation weight, index j of the first nonzero entry, sum of the
    # positive entries); the negative entries sum to level - that.
    frontier = {unit: (w, j, 1) for j, (unit, _, _, w) in enumerate(up)}
    # (i, v) as v in its field -> each recorded minimal t = s or -s with t_i = v.
    index: dict[int, list[int]] = {}
    found = []
    level = 1
    grown = len(frontier)
    compared = 0
    while frontier:
        next_frontier: dict[int, tuple[int, int, int]] = {}
        solved = []
        for s, (r, j, pos) in frontier.items():
            if r > 0:
                if level - pos == cap:
                    continue
                steps, child_pos = down[j + 1 :], pos
            else:
                if pos == cap:
                    continue
                steps, child_pos = up[j:], pos + 1
            for unit, grown_field, opposite, dr in steps:
                if s & opposite:  # a step toward zero: k_i and kbar_i both > 0
                    continue
                child = s + unit
                if child in next_frontier:
                    continue
                if grown >= MAX_BASIS_CANDIDATES or compared >= MAX_BASIS_COMPARISONS:
                    raise TooManyCandidates(
                        f"weights {list(spec_weights)}: by degree {level + 1} the Hilbert basis "
                        f"completion grew {grown} vectors and made {compared} domination "
                        f"comparisons, against bounds of {MAX_BASIS_CANDIDATES} and "
                        f"{MAX_BASIS_COMPARISONS}"
                    )
                bucket = index.get(child & grown_field, ())
                compared += len(bucket)
                guarded = child | guards
                for t in bucket:
                    if (guarded - t) & guards == guards:  # t <= child fieldwise
                        break
                else:
                    grown += 1
                    child_r = r + dr
                    next_frontier[child] = (child_r, j, child_pos)
                    if not child_r:
                        solved.append(child)
        for s in solved:
            del next_frontier[s]
            entries = [(s >> shift) & field for shift in unpack]
            found.append((tuple(entries[:n]), tuple(entries[n:])))
            for t in (s, (s >> half) | ((s & low_half) << half)):
                for mask in masks:
                    if t & mask:
                        index.setdefault(t & mask, []).append(t)
        frontier = next_frontier
        level += 1
    return found


def realize_generators(basis: frozenset[ExponentVector]) -> list[InvariantGenerator]:
    """Turn a Hilbert basis into an ordered list of real generators.

    The basis must be closed under conjugation, as every Hilbert basis is.
    The |z_j|^2 generators (k == kbar) come first, ordered by j.  Each pair
    gives Re and Im of its member with k > kbar, whose k + kbar is the larger
    concatenation, as the two first differ where k and kbar do.  Pairs are
    listed by increasing degree, ties broken by k + kbar.
    """
    abs2, reps = [], []
    for e in basis:
        if e.holomorphic == e.antiholomorphic:
            abs2.append(InvariantGenerator(e, PART_ABS2))
        elif e.holomorphic > e.antiholomorphic:
            reps.append(e)
    abs2.sort(key=lambda g: g.exponents.holomorphic.index(1))
    # (degree, k, kbar) order by stable passes: a decorated tuple per element costs GC time.
    for key in ("antiholomorphic", "holomorphic", "degree"):
        reps.sort(key=attrgetter(key))
    new = InvariantGenerator._trusted
    return abs2 + [new(e, part) for e in reps for part in (PART_RE, PART_IM)]


@lru_cache(maxsize=8)
def _search_order(basis: frozenset[ExponentVector]):
    """What decompose needs of a basis, computed once per basis: the set of
    coordinate counts of its elements, the nonzero elements by decreasing
    degree, and their concatenated exponent tuples.
    """
    lengths = frozenset(b.m for b in basis)
    elems = tuple(sorted((b for b in basis if b.degree), key=lambda b: (-b.degree, b.key())))
    return lengths, elems, tuple(b.key() for b in elems)


def decompose(
    spec: ActionSpec,
    e: ExponentVector,
    basis: frozenset[ExponentVector],
) -> Counter | None:
    """Write an invariant exponent vector as a sum of basis elements.

    Exhaustive depth-first search, so a None result means no decomposition
    exists.  Returns a Counter mapping basis elements to multiplicities
    (empty for the zero vector).  Raises :class:`NotInvariant` if `e` fails
    the invariance criterion.  Acceptance criterion 6 decomposes every
    invariant vector of small degree with it.

    A zero basis element never changes what remains, so the search leaves
    it out.  The `dead` memo bounds the work: the search fails at most once
    from each (remaining, start) pair, where remaining <= e componentwise
    and start indexes the basis, so there are at most
    |basis| * prod_j (k_j + 1)(kbar_j + 1) such pairs, and each scans the
    basis once.
    """
    rotation = circle_weight(spec, e)  # checks e's length
    if rotation != 0:
        raise NotInvariant(f"rotation weight {rotation} != 0")
    lengths, elems, flats = _search_order(frozenset(basis))
    if lengths - {spec.m}:
        for b in basis:
            _check_length(spec, b)

    # (remaining, start) pairs from which no decomposition exists.
    dead: set[tuple[tuple[int, ...], int]] = set()
    # Frames (remaining, start, next index to try); a frame below the top
    # has taken basis element next - 1 to reach the frame above it.
    stack = [(e.key(), 0, 0)]
    while stack:
        remaining, start, idx = stack.pop()
        if not any(remaining):
            return Counter(elems[i - 1] for _, _, i in stack)
        for idx in range(idx, len(flats)):
            b = flats[idx]
            if all(map(ge, remaining, b)):
                rest = tuple(map(sub, remaining, b))
                if (rest, idx) not in dead:
                    stack += (remaining, start, idx + 1), (rest, idx, idx)
                    break
        else:
            dead.add((remaining, start))
    return None
