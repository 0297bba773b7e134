"""Magnitude values, structural checks, and the determinant routes."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import magarr.magnitude as magnitude
from conftest import (
    EIGHTEEN_LINES,
    NO_SYSTEM,
    chamber_matrix,
    cyclotomic,
    det_product_by_flats,
    elimination_work,
    expand,
    general_position_rows,
    generic_arrangements,
    geometry,
    homology_of,
    kronecker_minors,
    magnitude_by_chamber_matrix,
    magnitude_checks_of,
    magnitude_of,
    power,
    profile_uniform_by_scan,
    random_arrangements,
    value_at,
)
from magarr.arrangement import (
    CATALOG_NAMES,
    SymmetryGroup,
    TopeGraph,
    catalog,
    enumerate_chambers,
    parse_arrangement,
)
from magarr.cli import golden_magnitude
from magarr.homology import conjecture_probes, magnitude_homology
from magarr.magnitude import (
    DET_CHECK_AUTO_LIMIT,
    ELIMINATION_BUDGET,
    _bareiss_minors,
    _check_work,
    _hadamard_bits,
    _halved,
    _lucas,
    _lucas_decode,
    alternating_violation,
    chamber_orbits,
    free_involution_basis,
    interior_magnitude,
    magnitude_by_face_decomposition,
    magnitude_direct,
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
            IntPoly.const(2 ** d), power(IntPoly((1, 1)), d)
        )


def test_reflection_fixtures_cyclotomic_form():
    mag = magnitude_of("braid:4").magnitude
    assert mag.num == IntPoly.const(24)
    assert mag.den == power(cyclotomic(2), 2) * cyclotomic(3) * cyclotomic(4)
    mag = magnitude_of("coxeter:B3").magnitude
    assert mag.num == IntPoly.const(48)
    assert (
        mag.den
        == power(cyclotomic(2), 3) * cyclotomic(3) * cyclotomic(4) * cyclotomic(6)
    )


def test_generic_and_graphic_fixture_forms():
    mag = magnitude_of("u34").magnitude
    assert mag.num == IntPoly((14, -20, 14))
    assert mag.den == power(cyclotomic(2), 2) * cyclotomic(8)
    mag = magnitude_of("k4me").magnitude
    assert mag.num == IntPoly((18, -2, -8, -2, 18))
    assert mag.den == power(cyclotomic(2), 3) * cyclotomic(3) * cyclotomic(10)


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
    _, _, lattice, group = geometry("u34")
    mag = magnitude_of("u34")
    wrong = reduce_fraction(mag.magnitude.num + ONE, mag.magnitude.den)
    checks = structural_checks(lattice, group, replace(mag, magnitude=wrong),
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
    _, _, lattice, group = geometry("u34")
    mag = magnitude_of("u34")
    pole = reduce_fraction(ONE, ONE - IntPoly.monomial(1))
    checks = structural_checks(lattice, group,
                               replace(mag, magnitude=pole, interior=pole),
                               face_check=True, det_check=False)
    assert checks["one_point_property"] is False
    assert checks["interior_at_one"] is False


def test_magnitude_checks_read_a_non_integral_series_as_false():
    # 1 / (2 + q) has constant term 2 in its denominator, so its series
    # 1/2 - q/4 + ... is not integral: the check reads den(0) and fails
    # without expanding it
    _, _, lattice, group = geometry("u34")
    mag = magnitude_of("u34")
    half = reduce_fraction(ONE, IntPoly((2, 1)))
    checks = structural_checks(lattice, group,
                               replace(mag, magnitude=half, interior=half),
                               face_check=True, det_check=False)
    assert checks["series_integral"] is False


def test_denominator_cyclotomic_detection():
    # the check holds on +-1 times cyclotomics without Phi_1, and fails
    # on Phi_1 or on a factor that is not cyclotomic
    _, _, lattice, group = geometry("u34")
    mag = magnitude_of("u34")

    def cyclotomic_denominator(den):
        factors, rem = cyclotomic_factor(den, 2 * mag.n)
        checks = structural_checks(
            lattice, group, replace(mag, magnitude=RatFunc(ONE, den),
                                    cyclotomic_den=factors,
                                    cyclotomic_rem=rem),
            face_check=False, det_check=False)
        return checks["cyclotomic_denominator"]

    den = power(cyclotomic(2), 3) * cyclotomic(8)
    assert cyclotomic_factor(den, 8) == (((2, 3), (8, 1)), ONE)
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
    arr, graph, lattice, _ = geometry(name)
    got = rank3_magnitude(arr.n, len(graph),
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
    basis = free_involution_basis(graph, group)
    direct = varchenko_det(graph, basis, NO_SYSTEM)
    assert direct == varchenko_det_product(lattice)
    # the matrix is the identity at q = 0, and Phi_1(0) = -1
    factors, unit = direct
    assert unit.constant() * (-1) ** dict(factors).get(1, 0) == 1
    assert varchenko_det(graph, basis, magnitude_of(name).system) == direct


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "boolean:6", "braid:6"])
def test_determinant_product_by_size_matches_flat_by_flat(name):
    lattice = geometry(name)[2]
    assert varchenko_det_product(lattice) == det_product_by_flats(lattice)


def test_determinant_boolean2_value():
    _, graph, lattice, group = geometry("boolean:2")
    want = (((1, 4), (2, 4)), ONE)
    assert expand(want) == power(ONE - IntPoly.monomial(2), 4)
    basis = free_involution_basis(graph, group)
    assert varchenko_det(graph, basis, NO_SYSTEM) == want
    assert kronecker_minors(chamber_matrix(graph), [1] * 4)[-1] == expand(want)
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
    # on every catalog name with at most 48 chambers: E = {+-I} and the E
    # the basis search finds; below 48 chambers, where it would take
    # seconds, the whole matrix too, by the q = 2**b oracle
    for name in CATALOG_NAMES:
        _, graph, lattice, group = geometry(name)
        if len(graph) > 48:
            continue
        want = varchenko_det_product(lattice)
        for basis in [(antipode_of(graph),),
                      free_involution_basis(graph, group)]:
            assert varchenko_det(graph, basis, NO_SYSTEM) == want, (
                name, len(basis))
        if len(graph) < 48:
            det = kronecker_minors(chamber_matrix(graph), [1] * len(graph))
            assert cyclotomic_factor(det[-1], 2 * graph.n) == want, name


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
    # each is named before any block is built, whose elimination could
    # fail on its own
    for basis, why in [((anti, anti), "fixes a chamber"),
                       ((swap,), "fixes a chamber"),
                       ((anti, swap), "not commuting involutions")]:
        with pytest.raises(CheckFailedError, match=why):
            varchenko_det(graph, basis, NO_SYSTEM)
    _, graph, _, _ = geometry("braid:3")
    rotate = tuple((i + 1) % len(graph) for i in range(len(graph)))
    # fixed-point-free, not involutive
    with pytest.raises(CheckFailedError, match="not commuting involutions"):
        varchenko_det(graph, (rotate,), NO_SYSTEM)


def test_det_budget_covers_the_automatic_check():
    # E always holds the antipode, so a graph of N <= 60 chambers splits
    # into blocks of order N / 2**k, k >= 1, whose entries have
    # coefficient sum at most 2**k in absolute value and degree at most
    # n <= N / 2 (n hyperplanes cut at least 2n chambers); at that
    # extreme, W(30, 30, 105) for N = 60 and k = 1, the budget must hold
    for size in range(2, DET_CHECK_AUTO_LIMIT + 1, 2):
        k = 1
        while size % 2 ** k == 0:
            order = size // 2 ** k
            block = [[IntPoly.const(2 ** k)] * order for _ in range(order)]
            _check_work(order, size // 2, _hadamard_bits(block), "")
            k += 1
    block = [[IntPoly.const(2)] * 30 for _ in range(30)]
    assert _hadamard_bits(block) == 105
    assert 2.4e14 < elimination_work(30, 30, 105) <= ELIMINATION_BUDGET


def test_det_budget_stops_a_large_block_before_eliminating(monkeypatch):
    def fail(*args):
        raise AssertionError("encoded past the budget")

    monkeypatch.setattr(magnitude, "_halved", fail)
    monkeypatch.setattr(magnitude, "_bareiss_minors", fail)
    _, graph, _, _ = geometry("coxeter:B3")
    with pytest.raises(BudgetExceededError) as info:
        varchenko_det(graph, (), NO_SYSTEM)  # one 48 x 48 block of 136 bits
    assert info.value.observed == elimination_work(48, 9, 136)
    assert info.value.observed > info.value.limit == ELIMINATION_BUDGET
    assert info.value.hint == "drop --det-check"


def pencil(count):
    """``count`` lines through the origin of the plane, normals (1, t)."""
    return parse_arrangement([[1, t] for t in range(count)])


def moment_planes(count):
    """``count`` hyperplanes in general position in R^4, normals
    (1, t, t^2, t^3) for t = 1..count."""
    return parse_arrangement([[1, t, t * t, t ** 3]
                              for t in range(1, count + 1)])


class Stop(Exception):
    """Raised by a stand-in to end a run at the point under test."""


ESTIMATE_CASES = {
    **{name: None for name in CATALOG_NAMES + ("boolean:8", "nearpencil:27")},
    "pencil:25": pencil(25),
    **{f"random{i}": arr for i, arr in enumerate(
        random_arrangements(12, seed=414243))},
}


@pytest.mark.parametrize("label", list(ESTIMATE_CASES))
def test_orbit_size_bits_are_the_hadamard_bits_of_the_system(
        monkeypatch, label):
    # an entry of the collapsed system counts the chambers of its orbit
    # by distance, so the Hadamard bits the estimate reads from the orbit
    # sizes alone are those of the bordered system built after it; the
    # elimination then takes the Hadamard bits of the halved system
    estimated, built, seen = [], [], []
    check_work, orbit_matrix = magnitude._check_work, magnitude.orbit_matrix

    def estimate(order, n, bits, hint):
        estimated.append(bits)
        check_work(order, n, bits, hint)

    def build(graph, orbits):
        built.append(orbit_matrix(graph, orbits))
        return built[-1]

    def stop(rows, weights, h, bits):
        seen.append((bits, _hadamard_bits(rows)))
        raise Stop

    monkeypatch.setattr(magnitude, "_check_work", estimate)
    monkeypatch.setattr(magnitude, "orbit_matrix", build)
    monkeypatch.setattr(magnitude, "_bareiss_minors", stop)
    arr = ESTIMATE_CASES[label]
    if arr is None:
        _, graph, _, group = geometry(label)
    else:
        graph = enumerate_chambers(arr)
        group = chamber_orbits(graph)[2]
    with pytest.raises(Stop):
        magnitude_fraction(graph, group)
    [(bits, want)], [system] = seen, built
    assert bits == want
    sizes = [p.evaluate(1) for p in system[0]]
    bordered = [row + [ONE] for row in system]
    bordered.append([IntPoly.const(w) for w in sizes] + [ZERO])
    assert estimated == [_hadamard_bits(bordered)]


@pytest.mark.parametrize("arr,refused", [
    (catalog("nearpencil:28"), None),  # W about 2.07e14
    (catalog("nearpencil:29"), "2.87e+14"),
    (moment_planes(7), None),  # W about 1.87e14
    (moment_planes(8), "5.10e+15"),
], ids=["nearpencil:28", "nearpencil:29", "moment4:7", "moment4:8"])
def test_past_the_estimate_the_system_is_never_built(
        monkeypatch, arr, refused):
    def stop(graph, orbits):
        raise Stop

    monkeypatch.setattr(magnitude, "orbit_matrix", stop)
    graph = enumerate_chambers(arr)
    group = chamber_orbits(graph)[2]
    if refused is None:
        with pytest.raises(Stop):
            magnitude_fraction(graph, group)
        return
    with pytest.raises(BudgetExceededError) as info:
        magnitude_fraction(graph, group)
    assert info.value.limit == ELIMINATION_BUDGET
    assert f"{info.value.observed:.2e}" == refused
    assert info.value.hint == "try a smaller arrangement"


def eliminate(rows, weights, n):
    """Every leading minor of the matrix M of degree n by the palindromic
    route: ``_halved`` into g S, ``_bareiss_minors`` at the Hadamard bits
    of S, and minor k of M = g^k times minor k of S, decoded about k h."""
    g, h, halved = _halved(rows, n)
    bits = _hadamard_bits(halved)
    minors = _bareiss_minors(halved, weights, h, bits)
    return [_lucas_decode(m, k * h, bits) * power(g, k)
            for k, m in enumerate(minors, 1)]


def test_bareiss_minors_are_leading_minors():
    rows = [
        [IntPoly.const(2), IntPoly.const(1)],
        [IntPoly.const(1), IntPoly.const(2)],
    ]
    assert eliminate(rows, [1, 1], 0) == [IntPoly.const(2), IntPoly.const(3)]


def test_varchenko_matrix_det_matches_split_route():
    _, graph, _, group = geometry("boolean:2")
    m = chamber_matrix(graph)
    # the whole 4 x 4 chamber matrix, which is not palindromic, by the
    # q = 2**b oracle
    det = kronecker_minors(m, [1] * len(m))[-1]
    assert det == expand(varchenko_det(
        graph, free_involution_basis(graph, group), NO_SYSTEM))


def test_determinant_block_equal_to_the_system_reuses_its_determinant(
        monkeypatch):
    # planes in general position have the symmetries E = G = {1, -1}, and
    # boolean:3 has one chamber orbit under E = its sign flips, so the
    # trivial-character block is the magnitude system M = g S entry for
    # entry: its determinant g^order det S is read, not eliminated, and a
    # wrong det S or g shows in the product; a block one entry off M is
    # eliminated
    calls = []

    def counted(rows, weights, h, bits):
        calls.append(len(rows))
        assert bits == _hadamard_bits(rows)
        return _bareiss_minors(rows, weights, h, bits)

    monkeypatch.setattr(magnitude, "_bareiss_minors", counted)
    for rows, g in [(general_position_rows(1), ONE),
                    (catalog("boolean:3").normals, IntPoly((1, 1))),
                    (general_position_rows(1, count=5), IntPoly((1, 1)))]:
        graph = enumerate_chambers(parse_arrangement(rows))
        group = chamber_orbits(graph)[2]
        basis = free_involution_basis(graph, group)
        matrix, (g_m, det_s) = magnitude_fraction(graph, group)[1]
        assert g_m == g, rows
        order = len(matrix)
        calls.clear()
        want = varchenko_det(graph, basis, NO_SYSTEM)
        blocks = len(calls)
        assert blocks > 1 and calls == [order] * blocks, rows
        calls.clear()
        assert varchenko_det(graph, basis, (matrix, (g, det_s))) == want
        assert calls == [order] * (blocks - 1), rows
        wrong = det_s * cyclotomic(2)
        factors, unit = want
        skewed = dict(factors)
        skewed[2] = skewed.get(2, 0) + 1
        assert varchenko_det(graph, basis, (matrix, (g, wrong))) == (
            tuple(sorted(skewed.items())), unit), rows
        # g's exponents and unit count order times: 1 - q = -Phi_1
        other = IntPoly((1, -1))
        swapped = expand(varchenko_det(graph, basis, (matrix, (other, det_s))))
        assert (swapped * power(g, order)
                == expand(want) * power(other, order)), rows
        last = order - 1
        for i, j in [(0, 0), (0, last), (last, min(3, last))]:
            off = [list(row) for row in matrix]
            off[i][j] = off[i][j] + IntPoly.monomial(1)
            calls.clear()
            assert varchenko_det(graph, basis, (off, (g, wrong))) == want, (
                rows, i, j)
            assert calls == [order] * blocks, rows
        # K off by -2**w + q in one entry, which is 0 at q = 2**w, is told
        # apart by its coefficient -2**w, past 2**(w - 1)
        off = [list(row) for row in matrix]
        off[0][0] = off[0][0] + IntPoly((-(1 << len(basis) + 2), 1))
        calls.clear()
        assert varchenko_det(graph, basis, (off, (g, wrong))) == want, rows
        assert calls == [order] * blocks, rows


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


def random_palindromic(rng, h, bound):
    """A palindromic IntPoly of degree 2h, coefficients in +-bound."""
    upper = [rng.randint(-bound, bound) for _ in range(h + 1)]
    return IntPoly(upper[:0:-1] + upper)


# g for each (sign of every entry, parity of n), as ``_halved`` picks it
DIVISORS = {
    (1, 0): ONE,
    (1, 1): IntPoly((1, 1)),
    (-1, 1): IntPoly((1, -1)),
    (-1, 0): IntPoly((1, 0, -1)),
}


def random_weight_symmetric(rng, size, sign, n):
    """Weights w in 1..4 and B[i][j] = w_j g S[i][j] with S symmetric and
    palindromic of degree 2h = n - deg g, so w_i B[i][j] = w_j B[j][i]
    and every entry is (anti-)palindromic of degree n by ``sign``;
    S[0][0] is nonzero, as its parity is read there."""
    g = DIVISORS[sign, n % 2]
    h = (n - g.degree) // 2
    weights = [rng.randint(1, 4) for _ in range(size)]
    sym = {}
    for i in range(size):
        for j in range(i, size):
            p = random_palindromic(rng, h, 3) if rng.random() < 0.8 else ZERO
            sym[i, j] = sym[j, i] = p
    if not sym[0, 0]:
        sym[0, 0] = IntPoly.monomial(h)
    rows = [[g * sym[i, j] * weights[j] for j in range(size)]
            for i in range(size)]
    return rows, weights


def test_bareiss_minors_match_leibniz_on_random_matrices():
    # each of the four (g, parity of n) cases, against Leibniz up to order
    # 3 and the q = 2**b route above
    for sign, n in [(1, 4), (1, 5), (-1, 5), (-1, 6)]:
        rng = random.Random(20240611 + n)
        raised = unequal = 0
        for _ in range(60):
            rows, weights = random_weight_symmetric(
                rng, rng.randint(1, 5), sign, n)
            g, h, _ = _halved(rows, n)
            assert (g, h) == (DIVISORS[sign, n % 2], (n - g.degree) // 2)
            unequal += len(set(weights)) > 1
            if len(rows) <= 3:
                want = leading_minors(rows)
            else:
                try:
                    want = kronecker_minors(rows, weights)
                except CheckFailedError:  # a zero pivot before the last
                    want = None
            if want is None or not all(want[:-1]):
                raised += 1
                with pytest.raises(CheckFailedError):
                    eliminate(rows, weights, n)
            else:
                assert eliminate(rows, weights, n) == want, (sign, n)
        assert 0 < raised < 60 and unequal > 30, (sign, n)


@pytest.mark.parametrize("bits", [3, 4, 5, 6, 40, 200])
def test_lucas_decode_round_trip(bits):
    # palindromic P of degree 2 center, coefficients of both signs up to
    # the bound (2**bits - 2)/2 exclusive, from c_center + sum_t
    # c_(center+t) V_t(2**bits); a value decodes to zero exactly when it is
    rng = random.Random(bits)
    top = (1 << (bits - 1)) - 2
    for center in range(6):
        lucas = _lucas(bits, center)
        size = 2 * center + 1
        extremes = [IntPoly([top] * size), IntPoly([-top] * size),
                    IntPoly([(-1) ** k * top for k in range(size)]), ZERO]
        randoms = [random_palindromic(rng, center, rng.choice([top, 1]))
                   for _ in range(200)]
        for p in extremes + randoms:
            value = sum(c * v for c, v in zip(p.coeffs[center:], lucas))
            assert _lucas_decode(value, center, bits) == p
            assert (value == 0) == (not p)
    assert _lucas(bits, 3) == [1, 1 << bits, (1 << 2 * bits) - 2,
                               (1 << 3 * bits) - 3 * (1 << bits)]


def sylvester_hadamard(order):
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


@pytest.mark.parametrize("order", [4, 8])
def test_bareiss_minors_at_the_hadamard_bound(order):
    # symmetric entries +-q^2, palindromic of degree 4: the k-th minor is
    # det(H_k) q^(2k), and the last one's coefficient meets the bound
    # prod_i sqrt(sum_j |m_ij|_1^2), which one bit less would misread
    h = sylvester_hadamard(order)
    rows = [[IntPoly.monomial(2, s) for s in r] for r in h]
    want = [
        IntPoly.monomial(2 * k, leibniz_det([r[:k] for r in h[:k]]))
        for k in range(1, order + 1)
    ]
    minors = eliminate(rows, [1] * order, 4)
    assert minors == want
    assert minors[-1].leading() == order ** (order // 2)
    bits = _hadamard_bits(rows)
    ints = _bareiss_minors(rows, [1] * order, 2, bits - 1)
    assert _lucas_decode(ints[-1], 2 * order, bits - 1) != want[-1]


def test_bareiss_minors_singular_last_minor_is_zero():
    q = IntPoly.monomial(1)
    p, r = ONE + q * q, ONE + q + q * q
    rows = [
        [p, q, r],
        [q, p, r],
        [r, r, r * 2],
    ]
    minors = eliminate(rows, [1, 1, 1], 2)
    assert minors == leading_minors(rows)
    assert minors[-1] == ZERO and minors[-2] == p * p - q * q


def test_bareiss_minors_zero_middle_pivot_raises():
    q = IntPoly.monomial(1)
    p = ONE + q * q
    rows = [
        [p, p, q],
        [p, p, ONE + q + q * q],
        [q, ONE + q + q * q, q],
    ]
    assert leading_minors(rows)[1] == ZERO
    with pytest.raises(CheckFailedError, match="zero pivot"):
        eliminate(rows, [1, 1, 1], 2)


def test_bareiss_minors_reject_asymmetric_input():
    q = IntPoly.monomial(1)
    p = ONE + q * q
    asymmetric = [[p, q], [ZERO, p]]
    weighted = [[p, q * 2], [q, p]]  # symmetric under the weights (1, 2)
    assert eliminate(weighted, [1, 2], 2) == leading_minors(weighted)
    for rows, weights in [(asymmetric, [1, 1]), (asymmetric, [2, 1]),
                          (weighted, [1, 1]), (weighted, [2, 1])]:
        with pytest.raises(CheckFailedError, match="not symmetric"):
            eliminate(rows, weights, 2)


def test_halved_names_the_first_entry_of_the_wrong_parity():
    q = IntPoly.monomial(1)
    p = ONE + q * q
    with pytest.raises(CheckFailedError, match=r"entry \(1, 0\) is not "
                       r"palindromic of degree 2"):
        _halved([[p, q], [ONE, p]], 2)
    anti = ONE - q * q
    with pytest.raises(CheckFailedError, match=r"entry \(0, 1\) is not "
                       r"anti-palindromic of degree 2"):
        _halved([[anti, q], [q, anti]], 2)
    with pytest.raises(CheckFailedError, match=r"entry \(0, 0\) is neither"):
        _halved([[ONE + q]], 2)
    with pytest.raises(CheckFailedError, match=r"entry \(0, 1\) is not "
                       r"palindromic of degree 1"):
        _halved([[ONE + q, p], [p, ONE + q]], 1)  # degree above n


def test_a_group_or_basis_without_the_antipode_names_the_entry():
    # the trivial group's system and the whole chamber matrix (E = ())
    # have entry (0, 0) = 1, with no q^n term to mirror it
    for name in ["boolean:2", "braid:3", "u34"]:
        _, graph, _, _ = geometry(name)
        with pytest.raises(CheckFailedError, match=r"entry \(0, 0\)"):
            varchenko_det(graph, (), NO_SYSTEM)
        trivial = replace(geometry(name)[3], generators=(), order=1)
        with pytest.raises(CheckFailedError, match=r"entry \(0, 0\)"):
            magnitude_fraction(graph, trivial)
    # a free involution other than the antipode: boolean:2's reflection
    # in one line swaps no chamber with its antipode
    _, graph, _, group = geometry("boolean:2")
    anti = antipode_of(graph)
    for x in group_of(group.generators, len(graph)):
        if x != anti and compose(x, x) == tuple(range(4)) and all(
                x[c] != c for c in range(4)):
            with pytest.raises(CheckFailedError, match=r"entry \(0, 0\)"):
                varchenko_det(graph, (x,), NO_SYSTEM)
            break
    else:
        raise AssertionError("no free involution besides the antipode")


def test_the_last_pivot_is_half_as_long_as_at_q_two_to_the_b(monkeypatch):
    # on one generic file the magnitude system's last pivot, its
    # bordered minor, has at most about half the bits it has at q = 2**b
    graph = enumerate_chambers(parse_arrangement(general_position_rows(1)))
    group = chamber_orbits(graph)[2]
    pivots = []
    bareiss = magnitude._bareiss_minors

    def recorded(rows, weights, h, bits):
        minors = bareiss(rows, weights, h, bits)
        pivots.append(minors[-1])
        return minors

    monkeypatch.setattr(magnitude, "_bareiss_minors", recorded)
    system = magnitude_fraction(graph, group)[1][0]
    weights = [p.evaluate(1) for p in system[0]]
    bordered = [row + [ONE] for row in system]
    bordered.append([IntPoly.const(w) for w in weights] + [ZERO])
    bits = _hadamard_bits(bordered)
    old = kronecker_minors(bordered, weights + [1])[-1].evaluate(1 << bits)
    [new] = pivots
    assert new.bit_length() <= 0.55 * old.bit_length()


def test_magnitude_fraction_orbit_reduction_consistent():
    # the collapsed system must give the fraction of the full chamber
    # matrix, solved without symmetry at q = 2**b, also where the orbit
    # weights differ
    orbit_sizes = {"braid:3": [6], "u34": [2, 6, 6],
                   "k4me": [2, 2, 2, 4, 4, 4], "u45": [2, 8, 8, 12]}
    for name, sizes in orbit_sizes.items():
        _, graph, _, _ = geometry(name)
        _, orbits, group = chamber_orbits(graph)
        assert sorted(map(len, orbits)) == sizes
        with_sym = magnitude_fraction(graph, group)[0]
        assert with_sym == magnitude_by_chamber_matrix(graph)


def test_distance_profiles():
    # every chamber of boolean:2 sees distances 0, 1, 1, 2; k4me's do not
    # all see one multiset
    for name, uniform in (("boolean:2", True), ("k4me", False)):
        _, graph, _, _ = geometry(name)
        probes = conjecture_probes(graph, magnitude_of(name),
                                   homology_of(name, 2))
        probe = probes["nonuniform_forces_cyclotomic_factor"]
        assert probe["profile_uniform"] is uniform


# U(3,4) plus a coloop: normals e1, e2, e3, e1 + e2 + e3 and e4 in R^4
U34_PLUS_LINE = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0],
                 [0, 0, 0, 1]]
PROFILE_CASES = {
    **{name: None for name in CATALOG_NAMES},
    "u34+line": U34_PLUS_LINE,
    **{f"generic{k:02d}": rows
       for k, rows in enumerate(generic_arrangements(1))},
}


def _probe_inputs(label):
    """(graph, magnitude result, homology result at lmax 1) of a case."""
    rows = PROFILE_CASES[label]
    if rows is None:
        _, graph, _, group = geometry(label)
        return graph, magnitude_of(label), homology_of(label, 1)
    graph = enumerate_chambers(parse_arrangement(rows))
    group = chamber_orbits(graph)[2]
    return (graph, magnitude_direct(graph, group),
            magnitude_homology(graph, lmax=1, group=group))


@pytest.mark.parametrize("label", list(PROFILE_CASES))
def test_profile_uniform_matches_the_all_pairs_scan(label):
    # the probe reads each orbit's distance profile as a row sum of the
    # collapsed system; the scan sorts the distances from every chamber
    graph, mag, hom = _probe_inputs(label)
    probe = conjecture_probes(graph, mag, hom)[
        "nonuniform_forces_cyclotomic_factor"]
    assert probe["profile_uniform"] is profile_uniform_by_scan(graph)


def test_conjecture_probes_take_no_distance(monkeypatch):
    graph, mag, hom = _probe_inputs("u34+line")
    calls = []
    dist = TopeGraph.dist

    def counted(self, i, j):
        calls.append((i, j))
        return dist(self, i, j)

    monkeypatch.setattr(TopeGraph, "dist", counted)
    conjecture_probes(graph, mag, hom)
    assert calls == []
