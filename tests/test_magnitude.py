"""Magnitude values, structural checks, and the determinant routes."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    EIGHTEEN_LINES,
    geometry,
    homology_of,
    magnitude_checks_of,
    magnitude_of,
    value_at,
)
from magarr.arrangement import CATALOG_NAMES, SymmetryGroup
from magarr.cli import golden_magnitude
from magarr.homology import conjecture_probes
from magarr.magnitude import (
    DET_BUDGET,
    DET_CHECK_AUTO_LIMIT,
    _bareiss_minors,
    _hadamard_bits,
    alternating_violation,
    chamber_orbits,
    free_involution_basis,
    interior_magnitude,
    magnitude_by_face_decomposition,
    magnitude_fraction,
    rank3_magnitude,
    structural_checks,
    varchenko_det,
    varchenko_det_product,
)
from magarr.errors import BudgetExceededError, CheckFailedError
from magarr.polyq import (
    ONE,
    ZERO,
    IntPoly,
    RatFunc,
    cyclotomic,
    cyclotomic_factor,
    reduce_fraction,
    series_expand,
)

QUICK = [
    "boolean:1",
    "boolean:2",
    "boolean:3",
    "braid:3",
    "coxeter:B2",
    "nearpencil:4",
    "u34",
]


@pytest.mark.parametrize("name", QUICK)
def test_reduced_forms_match_frozen_values(name):
    mag = magnitude_of(name)
    want = golden_magnitude()[name]
    assert list(mag.magnitude.num.coeffs) == want["num"]
    assert list(mag.magnitude.den.coeffs) == want["den"]
    assert list(mag.series) == want["series"]


def test_coordinate_arrangements_closed_form():
    for d in range(1, 5):
        mag = magnitude_of(f"boolean:{d}").magnitude
        assert mag == reduce_fraction(
            IntPoly.const(2 ** d), IntPoly((1, 1)) ** d
        )


def test_reflection_fixtures_cyclotomic_form():
    mag = magnitude_of("braid:4").magnitude
    assert mag.num == IntPoly.const(24)
    assert mag.den == cyclotomic(2) ** 2 * cyclotomic(3) * cyclotomic(4)
    mag = magnitude_of("coxeter:B3").magnitude
    assert mag.num == IntPoly.const(48)
    assert (
        mag.den
        == cyclotomic(2) ** 3 * cyclotomic(3) * cyclotomic(4) * cyclotomic(6)
    )


def test_generic_and_graphic_fixture_forms():
    mag = magnitude_of("u34").magnitude
    assert mag.num == IntPoly((14, -20, 14))
    assert mag.den == cyclotomic(2) ** 2 * cyclotomic(8)
    mag = magnitude_of("k4me").magnitude
    assert mag.num == IntPoly((18, -2, -8, -2, 18))
    assert mag.den == cyclotomic(2) ** 3 * cyclotomic(3) * cyclotomic(10)


@pytest.mark.parametrize("name", QUICK + ["k4me", "braid:4"])
def test_structural_checks_all_pass(name):
    mag = magnitude_of(name)
    checks = magnitude_checks_of(name)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}
    assert checks["one_point_property"]
    assert checks["degree_gap_is_n"]
    assert checks["palindromic_num"] and checks["palindromic_den"]
    assert checks["cyclotomic_denominator"]
    assert checks["inversion_symmetry"]
    assert checks["face_decomposition_route"]
    assert checks["varchenko_det_product"]
    assert value_at(mag.magnitude, 1) == Fraction(1)
    assert all(k != 1 for k, _ in mag.cyclotomic_den)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_face_route_per_orbit_equals_per_flat(name):
    # with the trivial group every flat is its own orbit, so the face
    # recursion runs once per flat; the orbit collapse must not move it
    _, _, lattice, group = geometry(name)
    per_flat = magnitude_by_face_decomposition(lattice, SymmetryGroup((), (), 1))
    assert magnitude_by_face_decomposition(lattice, group) == per_flat
    assert per_flat == magnitude_of(name).magnitude


def test_magnitude_checks_catch_a_wrong_value():
    # 15 - 20q + 14q^2 over the true denominator of u34: not palindromic,
    # not 1 at q = 1, and off both independent routes; the series and the
    # determinant are left as they were, so their checks still pass
    _, graph, lattice, group = geometry("u34")
    mag = magnitude_of("u34")
    wrong = reduce_fraction(mag.magnitude.num + ONE, mag.magnitude.den)
    checks = structural_checks(graph, lattice, group,
                               replace(mag, magnitude=wrong),
                               face_check=True, det_check=False)
    assert set(checks) == set(magnitude_checks_of("u34"))
    assert sorted(k for k, v in checks.items() if not v) == [
        "face_decomposition_route",
        "inversion_symmetry",
        "one_point_property",
        "palindromic_num",
        "rank3_closed_form",
    ]


def test_magnitude_checks_read_a_pole_at_one_as_false():
    # 1 / (1 - q) has a pole at q = 1: the checks there compare num(1)
    # with den(1) as integers, so they fail instead of dividing by zero
    _, graph, lattice, group = geometry("u34")
    mag = magnitude_of("u34")
    pole = reduce_fraction(ONE, ONE - IntPoly.monomial(1))
    checks = structural_checks(graph, lattice, group,
                               replace(mag, magnitude=pole, interior=pole),
                               face_check=True, det_check=False)
    assert checks["one_point_property"] is False
    assert checks["interior_at_one"] is False


def test_magnitude_checks_read_a_non_integral_series_as_false():
    # 1 / (2 + q) has constant term 2 in its denominator, so its series
    # 1/2 - q/4 + ... is not integral: the check reads den(0) and fails
    # without expanding it
    _, graph, lattice, group = geometry("u34")
    mag = magnitude_of("u34")
    half = reduce_fraction(ONE, IntPoly((2, 1)))
    checks = structural_checks(graph, lattice, group,
                               replace(mag, magnitude=half, interior=half),
                               face_check=True, det_check=False)
    assert checks["series_integral"] is False


def test_denominator_cyclotomic_detection():
    # the check holds on +-1 times cyclotomics without Phi_1, and fails
    # on Phi_1 or on a factor that is not cyclotomic
    _, graph, lattice, group = geometry("u34")
    mag = magnitude_of("u34")

    def cyclotomic_denominator(den):
        checks = structural_checks(
            graph, lattice, group, replace(mag, magnitude=RatFunc(ONE, den)),
            face_check=False, det_check=False)
        return checks["cyclotomic_denominator"]

    den = cyclotomic(2) ** 3 * cyclotomic(8)
    assert cyclotomic_factor(den) == (((2, 3), (8, 1)), ONE)
    assert cyclotomic_denominator(den)
    assert not cyclotomic_denominator(cyclotomic(1) * cyclotomic(2))
    assert not cyclotomic_denominator(IntPoly((2, 0, 2)))


def test_series_leading_terms_count_chambers_and_edges():
    for name in ("braid:3", "u34", "coxeter:B2"):
        mag = magnitude_of(name)
        _, graph, _, _ = geometry(name)
        assert mag.series[0] == len(graph)
        assert mag.series[1] == -2 * len(graph.edges())


def test_interior_magnitude_shift():
    mag = magnitude_of("u34")
    inner = interior_magnitude(mag.magnitude, mag.rank, mag.n)
    assert inner == mag.interior
    assert value_at(inner, 1) == (-1) ** mag.rank
    # interior = (-1)^rank q^n * magnitude as rational functions
    x = Fraction(3)
    assert value_at(inner, x) == (
        (-1) ** mag.rank * x ** mag.n * value_at(mag.magnitude, x))


@pytest.mark.parametrize("name", ["nearpencil:4", "nearpencil:5", "u34", "k4me"])
def test_rank3_closed_form_matches_direct(name):
    arr, _, lattice, _ = geometry(name)
    got = rank3_magnitude(arr.n, lattice.chamber_count,
                          lattice.rank3_line_multiplicities())
    assert got == magnitude_of(name).magnitude


def test_large_rank3_series_and_sign_break():
    mag = rank3_magnitude(*EIGHTEEN_LINES)
    series = series_expand(mag, 10)
    assert tuple(series)[:9] == (
        216, -672, 792, -360, -72, -48, 720, -1392, 1512,
    )
    assert alternating_violation(series) == 4
    assert value_at(mag, 1) == 1


def test_alternating_violation_none_for_coordinate_case():
    mag = magnitude_of("boolean:3")
    assert alternating_violation(mag.series) is None
    assert alternating_violation((4, -8, 12)) is None
    assert alternating_violation((4, 8)) == 1
    assert alternating_violation((0, -1, 2)) is None


@pytest.mark.parametrize(
    "name", ["boolean:2", "boolean:3", "braid:3", "u34", "braid:4", "coxeter:B3"]
)
def test_determinant_two_routes(name):
    _, graph, lattice, group = geometry(name)
    direct = varchenko_det(graph, free_involution_basis(graph, group))
    assert direct == varchenko_det_product(lattice)
    assert direct.constant() == 1


def test_determinant_boolean2_value():
    _, graph, lattice, group = geometry("boolean:2")
    want = (ONE - IntPoly.monomial(2)) ** 4
    assert varchenko_det(graph, free_involution_basis(graph, group)) == want
    assert varchenko_det(graph, ()) == want
    assert varchenko_det_product(lattice) == want


def antipode_of(graph):
    return tuple(graph.antipode(i) for i in range(len(graph)))


def compose(g, h):
    return tuple(g[i] for i in h)


def group_of(basis, size):
    """Every element of the group the basis generates, by closure."""
    out = {tuple(range(size))}
    while True:
        more = {compose(b, e) for b in basis for e in out} - out
        if not more:
            return out
        out |= more


def test_split_determinant_is_the_same_for_every_E():
    # on every catalog name with at most 48 chambers: E = {+-I}, the E
    # the basis search finds, and E trivial (the whole matrix) below 48
    # chambers, where it would take seconds
    for name in CATALOG_NAMES:
        _, graph, lattice, group = geometry(name)
        if len(graph) > 48:
            continue
        want = varchenko_det_product(lattice)
        bases = [(antipode_of(graph),), free_involution_basis(graph, group)]
        if len(graph) < 48:
            bases.append(())
        for basis in bases:
            assert varchenko_det(graph, basis) == want, (name, len(basis))


@pytest.mark.parametrize("name,order", [
    *((f"boolean:{d}", 2 ** d) for d in range(1, 7)),
    ("coxeter:B3", 8),
    ("braid:4", 4),
    ("u45", 2),
])
def test_free_involution_basis_orders(name, order):
    _, graph, _, group = geometry(name)
    basis = free_involution_basis(graph, group)
    size = len(graph)
    identity = tuple(range(size))
    assert basis[0] == antipode_of(graph)
    members = group_of(basis, size)
    assert len(members) == 2 ** len(basis) == order
    assert size % order == 0 and group.order % order == 0
    for e in members - {identity}:
        assert compose(e, e) == identity
        assert all(e[c] != c for c in range(size))
        assert all(compose(e, f) == compose(f, e) for f in members)


def test_varchenko_det_rejects_a_group_that_is_not_free():
    _, graph, _, _ = geometry("boolean:2")
    anti = antipode_of(graph)
    swap = (1, 0) + tuple(range(2, len(graph)))  # fixes chambers 2 and 3
    for basis in [(anti, anti), (swap,), (anti, swap)]:
        with pytest.raises(CheckFailedError):
            varchenko_det(graph, basis)
    _, graph, _, _ = geometry("braid:3")
    rotate = tuple((i + 1) % len(graph) for i in range(len(graph)))
    with pytest.raises(CheckFailedError):  # fixed-point-free, not involutive
        varchenko_det(graph, (rotate,))


def test_det_budget_covers_the_automatic_check():
    # E always holds the antipode, so a graph of N <= 60 chambers splits
    # into blocks of order N / 2**k, k >= 1, whose entries have
    # coefficient sum at most 2**k in absolute value; at that extreme
    # (30 x 105 bits for N = 60, k = 1) the budget must still hold
    for size in range(2, DET_CHECK_AUTO_LIMIT + 1, 2):
        k = 1
        while size % 2 ** k == 0:
            order = size // 2 ** k
            block = [[IntPoly.const(2 ** k)] * order for _ in range(order)]
            assert order * _hadamard_bits(block) <= DET_BUDGET, (size, k)
            k += 1
    block = [[IntPoly.const(2)] * 30 for _ in range(30)]
    assert 30 * _hadamard_bits(block) == 30 * 105


def test_det_budget_stops_a_large_block_before_eliminating():
    _, graph, _, _ = geometry("coxeter:B3")
    with pytest.raises(BudgetExceededError) as info:
        varchenko_det(graph, ())  # one 48 x 48 block: 48 x 136 bits
    assert info.value.observed > info.value.limit == DET_BUDGET


def test_bareiss_minors_are_leading_minors():
    rows = [
        [IntPoly.const(2), IntPoly.const(1)],
        [IntPoly.const(1), IntPoly.const(2)],
    ]
    assert _bareiss_minors(rows, [1, 1]) == [IntPoly.const(2), IntPoly.const(3)]


def varchenko_matrix(graph):
    """Full chamber-by-chamber matrix of q powers (small inputs only)."""
    size = len(graph)
    return [
        [IntPoly.monomial(graph.dist(i, j)) for j in range(size)]
        for i in range(size)
    ]


def test_varchenko_matrix_det_matches_split_route():
    _, graph, _, group = geometry("boolean:2")
    m = varchenko_matrix(graph)
    # 4x4 cofactor expansion by hand through the minors helper
    det = _bareiss_minors(m, [1] * len(m))[-1]
    assert det == varchenko_det(graph, free_involution_basis(graph, group))


def leibniz_det(rows):
    """Determinant as the signed sum over permutations (ints or IntPolys)."""
    total = None
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(
            perm[i] > perm[j]
            for i in range(len(perm)) for j in range(i + 1, len(perm))
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = term if total is None else total + term
    return total


def leading_minors(rows):
    return [leibniz_det([r[:k] for r in rows[:k]]) for k in range(1, len(rows) + 1)]


def random_weight_symmetric(rng, n):
    """Weights w in 1..4 and B[i][j] = w_j S[i][j] with S symmetric, so
    w_i B[i][j] = w_j B[j][i]."""
    weights = [rng.randint(1, 4) for _ in range(n)]
    sym = {}
    for i in range(n):
        for j in range(i, n):
            sym[i, j] = sym[j, i] = IntPoly(
                [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
    rows = [[sym[i, j] * weights[j] for j in range(n)] for i in range(n)]
    return rows, weights


def test_bareiss_minors_match_leibniz_on_random_matrices():
    rng = random.Random(20240611)
    raised = unequal = 0
    for _ in range(60):
        rows, weights = random_weight_symmetric(rng, rng.randint(1, 5))
        unequal += len(set(weights)) > 1
        want = leading_minors(rows)
        if not all(want[:-1]):
            raised += 1
            with pytest.raises(CheckFailedError):
                _bareiss_minors(rows, weights)
        else:
            assert _bareiss_minors(rows, weights) == want
    assert 0 < raised < 60 and unequal > 30


def sylvester_hadamard(order):
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


@pytest.mark.parametrize("order", [4, 8])
def test_bareiss_minors_at_the_hadamard_bound(order):
    # symmetric entries +-q^(i+j): the k-th minor is det(H_k) q^(k(k-1)),
    # and the last one's coefficient meets the bound
    # prod_i sqrt(sum_j |m_ij|_1^2)
    h = sylvester_hadamard(order)
    rows = [[IntPoly.monomial(i + j, s) for j, s in enumerate(r)]
            for i, r in enumerate(h)]
    want = [
        IntPoly.monomial(k * (k - 1), leibniz_det([r[:k] for r in h[:k]]))
        for k in range(1, order + 1)
    ]
    minors = _bareiss_minors(rows, [1] * order)
    assert minors == want
    assert minors[-1].leading() == order ** (order // 2)


def test_bareiss_minors_singular_last_minor_is_zero():
    q = IntPoly.monomial(1)
    rows = [
        [ONE, q, ONE + q],
        [q, ONE, ONE + q],
        [ONE + q, ONE + q, (ONE + q) * 2],
    ]
    minors = _bareiss_minors(rows, [1, 1, 1])
    assert minors == leading_minors(rows)
    assert minors[-1] == ZERO and minors[-2] == ONE - q * q


def test_bareiss_minors_zero_middle_pivot_raises():
    q = IntPoly.monomial(1)
    rows = [
        [ONE, q, ONE],
        [q, q * q, ONE],
        [ONE, ONE, ONE],
    ]
    assert leading_minors(rows)[1] == ZERO
    with pytest.raises(CheckFailedError, match="zero pivot"):
        _bareiss_minors(rows, [1, 1, 1])


def test_bareiss_minors_reject_asymmetric_input():
    q = IntPoly.monomial(1)
    asymmetric = [[ONE, q], [ZERO, ONE]]
    weighted = [[ONE, q * 2], [q, ONE]]  # symmetric under the weights (1, 2)
    assert _bareiss_minors(weighted, [1, 2]) == leading_minors(weighted)
    for rows, weights in [(asymmetric, [1, 1]), (asymmetric, [2, 1]),
                          (weighted, [1, 1]), (weighted, [2, 1])]:
        with pytest.raises(CheckFailedError, match="not symmetric"):
            _bareiss_minors(rows, weights)


def test_magnitude_fraction_orbit_reduction_consistent():
    # the collapsed system must give the same fraction with and without
    # the symmetry group, also where the orbit weights differ
    orbit_sizes = {"braid:3": [6], "u34": [2, 6, 6],
                   "k4me": [2, 2, 2, 4, 4, 4], "u45": [2, 8, 8, 12]}
    for name, sizes in orbit_sizes.items():
        _, graph, _, _ = geometry(name)
        _, orbits, group = chamber_orbits(graph)
        assert sorted(map(len, orbits)) == sizes
        with_sym = magnitude_fraction(graph, group)
        without = magnitude_fraction(graph, group=SymmetryGroup((), (), 1))
        assert with_sym == without


def test_distance_profiles():
    # every chamber of boolean:2 sees distances 0, 1, 1, 2; k4me's do not
    # all see one multiset
    for name, uniform in (("boolean:2", True), ("k4me", False)):
        _, graph, _, _ = geometry(name)
        probes = conjecture_probes(graph, magnitude_of(name),
                                   homology_of(name, 2))
        probe = probes["nonuniform_forces_cyclotomic_factor"]
        assert probe["profile_uniform"] is uniform
