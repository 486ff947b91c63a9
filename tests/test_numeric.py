import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import (
    PART_IM,
    PART_RE,
    ActionSpec,
    ExponentVector,
    InvariantGenerator,
    LengthMismatch,
    NotCoprime,
    check_homogeneity,
    check_invariance,
    check_m2_membership,
    check_membership,
    check_separation,
    evaluate_hilbert_map,
    hilbert_basis,
    numeric,
    realize_generators,
    rotate,
    run_property_suite,
    same_orbit,
)


def generators_for(weights):
    return realize_generators(hilbert_basis(ActionSpec(0, weights)))


def test_rotate_identity():
    spec = ActionSpec(0, (1, 2))
    p = (0.3 + 0.4j, -1.0 + 0.2j)
    assert rotate(spec, 0.0, p) == p


def test_rotate_half_turn():
    spec = ActionSpec(0, (1,))
    (z,) = rotate(spec, math.pi, (1 + 0j,))
    assert abs(z - (-1 + 0j)) < 1e-15


def test_rotate_weight_two_full_turn():
    spec = ActionSpec(0, (1, 2))
    z1, z2 = rotate(spec, math.pi, (1 + 0j, 1 + 0j))
    assert abs(z1 - (-1)) < 1e-15
    assert abs(z2 - 1) < 1e-15


def test_rotate_length_mismatch():
    with pytest.raises(LengthMismatch):
        rotate(ActionSpec(0, (1, 2)), 0.1, (1 + 0j,))


def test_evaluate_weights_1_2_at_ones():
    values = evaluate_hilbert_map(generators_for((1, 2)), (1 + 0j, 1 + 0j))
    assert values == (1.0, 1.0, 1.0, 0.0)


def test_evaluate_at_origin_is_zero():
    values = evaluate_hilbert_map(generators_for((1, 2)), (0j, 0j))
    assert values == (0.0, 0.0, 0.0, 0.0)


def test_evaluate_single_modulus():
    assert evaluate_hilbert_map(generators_for((1,)), (3 + 4j,)) == (25.0,)


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate_hilbert_map(generators_for((1, 2)), (1 + 0j,))


def power_table_evaluation(generators, point):
    """Reference evaluator: per-coordinate tables of z_j^0..z_j^top built by
    repeated multiplication, each monomial a product of table entries."""
    tables = []
    for z in point:
        holo, anti = [1 + 0j], [1 + 0j]
        for _ in range(max((g.exponents.degree for g in generators), default=0)):
            holo.append(holo[-1] * z)
            anti.append(anti[-1] * z.conjugate())
        tables.append((holo, anti))
    values = []
    for g in generators:
        w = 1 + 0j
        for k, kbar, (holo, anti) in zip(
            g.exponents.holomorphic, g.exponents.antiholomorphic, tables
        ):
            w *= holo[k] * anti[kbar]
        values.append(w.imag if g.part == PART_IM else w.real)
    return tuple(values)


@st.composite
def generators_and_point(draw):
    m = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, 250), min_size=m, max_size=m).map(tuple)
    generators = draw(
        st.lists(
            st.builds(
                InvariantGenerator,
                st.builds(ExponentVector, exponents, exponents),
                st.sampled_from([PART_RE, PART_IM]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    modulus = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    point = tuple(
        draw(modulus) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        for _ in range(m)
    )
    return generators, point


@settings(max_examples=200, deadline=None)
@given(generators_and_point())
def test_evaluate_agrees_with_sequential_power_tables(case):
    # exponents up to 250 reach both sides of CPython's complex ** int
    # cutoff at 100 (squaring below, exp/log above)
    generators, point = case
    fast = evaluate_hilbert_map(generators, point)
    slow = power_table_evaluation(generators, point)
    assert all(abs(a - b) <= 1e-11 for a, b in zip(fast, slow))


def test_evaluate_at_a_high_exponent():
    z = cmath.exp(2j * math.pi / 7)
    k = (10**6 + 1,)  # = 2 mod 7
    generators = [
        InvariantGenerator(ExponentVector(k, (0,)), part) for part in (PART_RE, PART_IM)
    ]
    re, im = evaluate_hilbert_map(generators, (z,))
    assert abs(complex(re, im) - cmath.exp(4j * math.pi / 7)) <= 1e-9


def test_evaluate_past_the_float_range_raises_overflow():
    g = InvariantGenerator(ExponentVector((2000, 0), (0, 1)), PART_RE)
    with pytest.raises(OverflowError):
        evaluate_hilbert_map([g], (2 + 0j, 1j))


def test_same_orbit_by_construction():
    spec = ActionSpec(0, (1, 2))
    z = (1 + 0j, 1 + 0j)
    w = rotate(spec, 0.7, z)
    assert same_orbit(spec, z, w, 1e-9)


def test_same_orbit_rejects_different_moduli():
    spec = ActionSpec(0, (1, 2))
    assert not same_orbit(spec, (1 + 0j, 1 + 0j), (2 + 0j, 1 + 0j), 1e-9)


def test_same_orbit_half_turn():
    assert same_orbit(ActionSpec(0, (1,)), (1 + 0j,), (-1 + 0j,), 1e-9)


def test_same_orbit_distinguishes_conjugate_points():
    # (1, i) and (1, -i) have equal moduli but lie on different orbits for
    # weights (1, 2): matching z1 forces theta = 0 up to 2pi.
    spec = ActionSpec(0, (1, 2))
    assert not same_orbit(spec, (1 + 0j, 1j), (1 + 0j, -1j), 1e-6)


def test_same_orbit_accepts_a_rotation_with_large_weights():
    spec = ActionSpec(0, (64, 97))
    z = (0.8 + 0.1j, 0.5j)
    assert same_orbit(spec, z, rotate(spec, 0.123456, z), 1e-9)


@pytest.mark.parametrize(
    "z, w, lengths",
    [
        ((1 + 0j,), (1 + 0j, 1j), "1 and 2"),
        ((1 + 0j, 1j), (1 + 0j,), "2 and 1"),
        ((1 + 0j,), (1j,), "1 and 1"),
    ],
    ids=["short-z", "short-w", "both-short"],
)
def test_same_orbit_refuses_points_off_the_action(z, w, lengths):
    with pytest.raises(LengthMismatch, match=f"points have {lengths} coordinates, action has 2"):
        same_orbit(ActionSpec(0, (1, 2)), z, w, 1e-9)


effective_weights = st.lists(st.integers(1, 8), min_size=1, max_size=4).map(
    lambda ws: tuple(w // math.gcd(*ws) for w in ws)
)
moduli_and_phases = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
    min_size=4,
    max_size=4,
)

ORACLE_ANGLES = 4096


def brute_force_distance(spec, z, w):
    """The smallest max-norm distance from w to z rotated by one of
    ORACLE_ANGLES evenly spaced angles.  The distance moves by at most
    max(weights) * max|z_j| <= 8 per radian, so this exceeds the true
    minimum over all angles by at most 8 * pi / ORACLE_ANGLES."""
    return min(
        max(abs(cmath.exp(1j * a * theta) * zc - wc) for a, zc, wc in zip(spec.weights, z, w))
        for theta in (2 * math.pi * i / ORACLE_ANGLES for i in range(ORACLE_ANGLES))
    )


@settings(max_examples=60, deadline=None)
@given(effective_weights, moduli_and_phases, st.floats(0.0, 2 * math.pi))
def test_same_orbit_agrees_with_a_dense_angle_oracle(weights, coords, theta):
    spec = ActionSpec(0, weights)
    coords = coords[: spec.m]
    z = tuple(r * cmath.exp(1j * phi) for r, phi, _ in coords)
    assert same_orbit(spec, z, rotate(spec, theta, z), 1e-9)

    # Equal moduli, independent phases: on one orbit or not, only the
    # rotation decides.  tol is large enough that the oracle's grid error,
    # 8 * pi / 4096 < 9 * tol, cannot hide a rotation within tol.
    tol = 1e-3
    w = tuple(r * cmath.exp(1j * psi) for r, _, psi in coords)
    distance = brute_force_distance(spec, z, w)
    accepted = same_orbit(spec, z, w, tol)
    if distance > 10 * tol:
        assert not accepted
    if accepted:
        assert distance <= tol + 8 * math.pi / ORACLE_ANGLES


def test_m2_membership_golden_points():
    assert check_m2_membership(1, 2, (1.0, 1.0, 1.0, 0.0), 1e-9)
    assert check_m2_membership(1, 2, (0.0, 0.0, 0.0, 0.0), 1e-9)
    assert not check_m2_membership(1, 2, (1.0, 1.0, 1.0, 1.0), 1e-9)


@pytest.mark.parametrize(
    "alpha1,alpha2,y,member",
    [
        (1, 2, (4.0, 1.0, 4.0, 0.0), True),
        (1, 2, (1e200, 1.0, 1e200, 0.0), True),
        (1, 1, (1e200, 1e200, 1e200, 0.0), True),
        (1, 2000, (2.0, 2.0, 0.0, 0.0), False),
        (1, 1, (1e200, 1e200, 0.0, 0.0), False),
        (2, 1, (2.0, math.inf, 0.0, 0.0), False),
    ],
    ids=["small", "power-overflows", "both-overflow", "far-off", "product-is-inf", "inf"],
)
def test_m2_membership_past_the_float_range(alpha1, alpha2, y, member):
    assert check_m2_membership(alpha1, alpha2, y, 1e-9) is member


def test_m2_membership_rejects_negative_first_coordinates():
    assert not check_m2_membership(1, 2, (-1.0, 1.0, 0.0, 0.0), 1e-9)
    assert not check_m2_membership(1, 2, (1.0, -0.5, 0.0, 0.0), 1e-9)


def test_m2_membership_requires_coprime_weights():
    with pytest.raises(NotCoprime):
        check_m2_membership(2, 4, (1.0, 1.0, 1.0, 0.0))


def test_m2_membership_on_actual_images():
    spec = ActionSpec(0, (2, 3))
    gens = generators_for((2, 3))
    for p in [(0.5 + 0.1j, -0.3 + 0.8j), (1j, 1 + 1j), (0.9, 0.2 - 0.7j)]:
        y = evaluate_hilbert_map(gens, p)
        assert check_m2_membership(2, 3, y, 1e-9)


def test_axes_image():
    gens = generators_for((1, 2))
    assert evaluate_hilbert_map(gens, (2 + 0j, 0j)) == (4.0, 0.0, 0.0, 0.0)
    assert evaluate_hilbert_map(gens, (0j, 1 + 0j)) == (0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("weights", [(1,), (1, 2), (2, 3), (1, 2, 3)])
def test_axes_image_all_axes(weights):
    spec = ActionSpec(0, weights)
    gens = generators_for(weights)
    # the j-th axis maps onto the |z_j|^2 slot alone, the generators listing
    # the |z_i|^2 first
    for j in range(spec.m):
        point = tuple(1.7 + 0j if i == j else 0j for i in range(spec.m))
        for i, v in enumerate(evaluate_hilbert_map(gens, point)):
            if i == j:
                assert abs(v - 1.7**2) <= 1e-12 * (1 + 1.7**2)
            else:
                assert abs(v) <= 1e-12


@pytest.mark.parametrize("weights", [(1,), (1, 2), (2, 3), (1, 2, 3)])
def test_sampled_invariance_and_homogeneity(weights):
    spec = ActionSpec(0, weights)
    gens = generators_for(weights)
    inv = check_invariance(spec, gens, trials=200, seed=11)
    hom = check_homogeneity(spec, gens, trials=200, seed=12)
    assert inv["failures"] == 0, inv
    assert hom["failures"] == 0, hom
    assert inv["max_err"] <= 1e-9
    assert hom["max_err"] <= 1e-9


def test_sampled_separation():
    spec = ActionSpec(0, (1, 2))
    gens = generators_for((1, 2))
    rep = check_separation(spec, gens, trials=40, seed=5)
    assert rep["failures"] == 0, rep


def test_sampled_separation_fails_without_the_re_im_pair():
    # |z1|^2 and |z2|^2 alone cannot tell (z1, z2) from (z1, -z2) apart, so
    # every equal-moduli off-orbit trial (the odd half) is a failure.
    spec = ActionSpec(0, (1, 2))
    gens = generators_for((1, 2))[:2]
    rep = check_separation(spec, gens, trials=200, seed=0)
    assert rep["failures"] == 100, rep


def _replaced(gens, k, kbar, *slots):
    """gens with the entries at `slots` taken over by z^k zbar^kbar, each
    keeping its part."""
    gens = list(gens)
    for i in slots:
        gens[i] = InvariantGenerator(ExponentVector(k, kbar), gens[i].part)
    return gens


def _evaluate_dropping_kbar(generators, p):
    """evaluate_hilbert_map with every antiholomorphic exponent read as 0."""
    values = []
    for g in generators:
        w = math.prod(complex(z) ** k for z, k in zip(p, g.exponents.holomorphic))
        values.append(w.imag if g.part == PART_IM else w.real)
    return tuple(values)


@pytest.mark.parametrize(
    "check, defect, evaluator, trials, failures",
    [
        # Re(z1) in place of Re(z1^2 zbar2): a monomial that is not invariant
        (check_invariance, lambda g: _replaced(g, (1, 0), (0, 0), 2), None, 100, 100),
        # z1^3 zbar2 in place of z1^2 zbar2: the wrong exponent profile
        (check_membership, lambda g: _replaced(g, (3, 0), (0, 1), 2, 3), None, 100, 99),
        # |z1|^2 and |z2|^2 alone cannot tell (z1, z2) from (z1, -z2) apart,
        # so every equal-moduli off-orbit trial (the odd half) fails
        (check_separation, lambda g: g[:2], None, 200, 100),
        # no generator list can fail homogeneity; an evaluator can
        (check_homogeneity, lambda g: g, _evaluate_dropping_kbar, 100, 100),
    ],
    ids=["invariance", "membership_m2", "separation", "homogeneity"],
)
def test_each_sampled_check_fails_on_the_defect_it_names(
    monkeypatch, check, defect, evaluator, trials, failures
):
    if evaluator is not None:
        monkeypatch.setattr(numeric, "evaluate_hilbert_map", evaluator)
    gens = defect(generators_for((1, 2)))
    rep = check(ActionSpec(0, (1, 2)), gens, trials=trials, seed=0)
    assert rep["failures"] == failures, rep


@pytest.mark.parametrize(
    "weights, trials, seed",
    [
        # an angle search can settle in the wrong basin here
        ((1, 4, 8), 40, 736660294),
        # |z1|^200 underflows image_tol unless the moduli stay near 1
        ((1, 200), 200, 0),
    ],
    ids=["1,4,8", "1,200"],
)
def test_property_suite_passes_on_a_correct_map(weights, trials, seed):
    reports = run_property_suite(ActionSpec(0, weights), trials, seed)
    assert all(r["failures"] == 0 for r in reports), reports


def test_sampled_membership():
    spec = ActionSpec(0, (1, 2))
    gens = generators_for((1, 2))
    rep = check_membership(spec, gens, trials=300, seed=3)
    assert rep["failures"] == 0, rep


@pytest.mark.parametrize(
    "check", [check_invariance, check_homogeneity, check_separation, check_membership]
)
def test_sampled_checks_refuse_a_negative_trial_count(check):
    # A report of -1 trials and 0 failures would read as a check that ran.
    spec = ActionSpec(0, (1, 2))
    with pytest.raises(ValueError, match="trials must be >= 0, got -1"):
        check(spec, generators_for((1, 2)), -1)


def test_property_suite_refuses_a_negative_trial_count():
    with pytest.raises(ValueError, match="trials must be >= 0, got -1"):
        run_property_suite(ActionSpec(0, (1, 2)), -1)


def test_property_suite_reports_are_reproducible():
    spec = ActionSpec(0, (2, 3))
    first = run_property_suite(spec, trials=50, seed=21)
    second = run_property_suite(spec, trials=50, seed=21)
    assert first == second
    assert [r["check"] for r in first] == [
        "invariance",
        "homogeneity",
        "separation",
        "membership_m2",
    ]
    assert all(set(r) == {"check", "seed", "trials", "failures", "max_err"} for r in first)


def test_invariance_exact_rotation_check():
    # spot check against direct complex arithmetic, not the harness
    spec = ActionSpec(0, (1, 2))
    gens = generators_for((1, 2))
    p = (0.6 - 0.2j, 0.3 + 0.5j)
    theta = 1.234
    before = evaluate_hilbert_map(gens, p)
    after = evaluate_hilbert_map(
        gens, (cmath.exp(1j * theta) * p[0], cmath.exp(2j * theta) * p[1])
    )
    assert max(abs(a - b) for a, b in zip(before, after)) < 1e-12
