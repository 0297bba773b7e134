"""Magnitude of an arrangement as an exact rational function in q.

The similarity matrix of the chamber metric has entries q^(distance).
Magnitude is the sum of the entries of its inverse applied to the all-
ones vector.  Symmetries of the arrangement act on chambers and commute
with the matrix, so the solution is constant on orbits; the computation
collapses to one row per orbit.  At q = 0 the collapsed matrix is the
identity, so fraction-free elimination never needs to pivot.  The
elimination runs on big integers by Kronecker substitution: every entry
is evaluated at q = 2**b, with b chosen from a Hadamard bound on the
coefficients of every minor, so each minor is read back exactly from
the base-2**b digits of its integer value.  Scaled by the orbit sizes,
the system is symmetric, so only its upper triangle is eliminated.

The determinant of the full matrix is split the same way, by a free
elementary abelian 2-subgroup E of the symmetries: its characters are
+-1, so the symmetry-adapted basis is integral and the matrix falls into
|E| blocks of order (chambers / |E|), one per character, each again the
identity at q = 0, and symmetric since E consists of involutions.  Size
budgets on the orbit count and on the largest block stop each
elimination before it starts.
"""

from collections import deque
from dataclasses import dataclass
from math import gcd, isqrt

from .arrangement import flat_orbits, orbits_of_permutations, tope_symmetries
from .errors import BudgetExceededError, CheckFailedError
from .linalg import matrix_rank
from .polyq import (
    ONE,
    IntPoly,
    RatFunc,
    ZERO,
    cyclotomic_factor,
    reduce_fraction,
    reverse_substitute,
    series_expand,
)

# magnitude series are reported through this power of q (11 coefficients)
SERIES_ORDER = 10
# the determinant check runs unasked on graphs with at most this many chambers
DET_CHECK_AUTO_LIMIT = 60
# the largest determinant block's order times its Hadamard bit bound may be
# at most this: braid:5 needs 4050 and bracelet 10047, and no graph with at
# most DET_CHECK_AUTO_LIMIT chambers needs more than 30 x 105
DET_BUDGET = 6000
# the search for a free involution basis visits at most this many elements
INVOLUTION_WALK_LIMIT = 4096
# the magnitude system's orbit count squared times the hyperplane count may
# be at most this (its last minor has degree up to orbits x n, with bits
# growing in the orbits): nearpencil:27 needs 18252 (26 orbits, 8 s), and
# no other catalog name or benchmark input more than 2304
MAGNITUDE_BUDGET = 20000


def _kronecker_decode(value, bits):
    """The IntPoly p with p(2**bits) == value and every coefficient of
    absolute value below 2**(bits - 1): value's signed base-2**bits digits."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    while value:
        coeffs.append(((value + half) & mask) - half)
        value = (value - coeffs[-1]) >> bits
    return IntPoly(coeffs)


def _hadamard_bits(matrix):
    """The b of ``_bareiss_minors``: 2**(b - 1) exceeds the Hadamard bound
    H = prod_i max(1, sqrt(sum_j |m_ij|_1^2)) on every minor's coefficients."""
    bound = 1
    for row in matrix:
        norms = sum(sum(abs(c) for c in p.coeffs) ** 2 for p in row)
        bound *= max(1, norms)
    return (isqrt(bound) + 1).bit_length() + 1


def _bareiss_minors(matrix, weights):
    """Leading principal minors by symmetric fraction-free elimination.

    ``matrix`` is a square list of IntPoly rows B with w_i B[i][j] =
    w_j B[j][i] for the positive integer ``weights`` w.  Requires every
    leading principal minor except possibly the last to be nonzero,
    which holds here because the systems solved have constant term
    equal to an identity matrix.

    The elimination runs on the integers A = B(2**b), with b from
    ``_hadamard_bits``; each minor is decoded by ``_kronecker_decode``.
    On |q| = 1, |m_ij(q)| <= |m_ij|_1, so by Hadamard every minor of B,
    bordered ones included, has modulus at most H there; a coefficient
    is at most the maximum modulus on |q| = 1, so it is at most H < 2**(b-1)
    and the decoding is exact (a minor is 0 iff its integer is).
    Entering step k, entry (i, j), i, j >= k, is the bordered minor
    det A[{0..k-1, i}, {0..k-1, j}] (Bareiss), so every division is exact.
    D A is symmetric for D = diag(w), so A^T = D A D^-1 and w_i a[i][j] =
    w_j a[j][i] at every step: step k updates only j >= i > k and reads
    a[i][k] = a[k][i] w_k / w_i, an exact division.
    """
    bits = _hadamard_bits(matrix)
    x = 1 << bits
    a = [[p.evaluate(x) for p in row] for row in matrix]
    n = len(a)
    if any(weights[i] * a[i][j] != weights[j] * a[j][i]
           for i in range(n) for j in range(i)):
        raise CheckFailedError("matrix is not symmetric under its weights")
    prev = 1
    minors = []
    for k in range(n):
        row_k, wk = a[k], weights[k]
        pk = row_k[k]
        if not pk and k < n - 1:
            raise CheckFailedError("zero pivot in fraction-free elimination")
        for i in range(k + 1, n):
            row_i = a[i]
            aik, rem = divmod(row_k[i] * wk, weights[i])
            if rem:
                raise CheckFailedError(
                    "inexact weight division in fraction-free elimination")
            for j in range(i, n):
                row_i[j], rem = divmod(pk * row_i[j] - aik * row_k[j], prev)
                if rem:
                    raise CheckFailedError(
                        "inexact division in fraction-free elimination")
        minors.append(pk)
        prev = pk
    return [_kronecker_decode(m, bits) for m in minors]


def chamber_orbits(graph, group=None):
    """Orbit ids, orbit member lists, and the symmetry group used."""
    if group is None:
        group = tope_symmetries(graph)
    orbit_id, orbits = orbits_of_permutations(len(graph), group.generators)
    return orbit_id, orbits, group


def _orbit_matrix(graph, orbits):
    """Collapsed similarity matrix: one row per orbit representative."""
    reps = [o[0] for o in orbits]
    m = []
    for r in reps:
        row = []
        for o in orbits:
            counts = {}
            for c in o:
                dd = graph.dist(r, c)
                counts[dd] = counts.get(dd, 0) + 1
            deg = max(counts)
            coeffs = [counts.get(k, 0) for k in range(deg + 1)]
            row.append(IntPoly(coeffs))
        m.append(row)
    return m


def magnitude_fraction(graph, group):
    """Magnitude as a reduced fraction of integer polynomials.

    Solves the collapsed system with a single bordered fraction-free
    elimination: the next-to-last minor is the system determinant and
    the last is (minus) the weighted solution sum times it.  With w the
    orbit sizes, [[M, 1], [w^T, 0]] is symmetric under the weights (w, 1).
    Before building the system, raises BudgetExceededError when its
    orbit count squared times the hyperplane count passes MAGNITUDE_BUDGET.
    """
    _, orbits, group = chamber_orbits(graph, group)
    cost = len(orbits) ** 2 * graph.n
    if cost > MAGNITUDE_BUDGET:
        raise BudgetExceededError("magnitude system orbits^2 x hyperplanes",
                                  MAGNITUDE_BUDGET, cost,
                                  "try a smaller arrangement")
    weights = [len(o) for o in orbits] + [1]
    m = [row + [ONE] for row in _orbit_matrix(graph, orbits)]
    m.append([IntPoly.const(w) for w in weights[:-1]] + [ZERO])
    *_, det_m, det_border = _bareiss_minors(m, weights)
    return reduce_fraction(-det_border, det_m)


@dataclass
class MagnitudeResult:
    """Magnitude with the values derived from it."""

    n: int
    rank: int
    magnitude: RatFunc
    interior: RatFunc
    series: tuple
    interior_series: tuple
    cyclotomic_den: tuple
    orbit_count: int
    symmetry_order: int


def interior_magnitude(mag, rank, n):
    """Sign-and-shift companion of magnitude: (-1)^rank q^n times it."""
    sign = -1 if rank % 2 else 1
    num = mag.num.shift(n) * sign
    return reduce_fraction(num, mag.den)


def magnitude_direct(graph, group):
    """Magnitude and its derived values, from the chamber metric."""
    _, orbits, group = chamber_orbits(graph, group)
    mag = magnitude_fraction(graph, group)
    n = graph.n
    rank = matrix_rank(graph.arrangement.normals)
    interior = interior_magnitude(mag, rank, n)
    return MagnitudeResult(
        n=n,
        rank=rank,
        magnitude=mag,
        interior=interior,
        series=series_expand(mag, SERIES_ORDER),
        interior_series=series_expand(interior, SERIES_ORDER),
        cyclotomic_den=cyclotomic_factor(mag.den)[0],
        orbit_count=len(orbits),
        symmetry_order=group.order,
    )


def structural_checks(graph, lattice, group, result, face_check, det_check):
    """Every magnitude-level check of ``result``, by name.

    The paper's identities on the value itself (integral series, the
    one-point property, the degree gap, palindromic numerator and
    denominator, a cyclotomic denominator without Phi_1, inversion
    symmetry, the first two series coefficients, the interior at one);
    with ``face_check``, the face decomposition route over the flat
    poset and, in rank three, the closed form; and the determinant,
    split over a free involution subgroup of ``group``, against its
    product formula when ``det_check`` is set or the graph has at most
    DET_CHECK_AUTO_LIMIT chambers.
    """
    mag, n, series = result.magnitude, result.n, result.series
    checks = {}
    # Fatou's lemma: a reduced pair (coprime, combined content 1) has
    # an integral power series exactly when den(0) = +-1
    checks["series_integral"] = (
        abs(mag.den.constant()) == 1
        and abs(result.interior.den.constant()) == 1)
    # on a reduced pair, num(1) == c den(1) for c = +-1 holds exactly when
    # the value at q = 1 is c; a pole there makes it False
    checks["one_point_property"] = mag.num.evaluate(1) == mag.den.evaluate(1)
    checks["degree_gap_is_n"] = mag.den.degree - mag.num.degree == n
    checks["palindromic_num"] = mag.num.is_palindromic()
    checks["palindromic_den"] = mag.den.is_palindromic()
    factors, rem = cyclotomic_factor(mag.den)
    checks["cyclotomic_denominator"] = (
        rem in (ONE, -ONE) and all(k != 1 for k, _ in factors))
    shifted = reduce_fraction(mag.num.shift(n), mag.den)
    checks["inversion_symmetry"] = reverse_substitute(mag) == shifted
    checks["series_chamber_count"] = series[0] == len(graph)
    checks["series_edge_count"] = series[1] == -2 * len(graph.edges())
    inner = result.interior
    checks["interior_at_one"] = (
        inner.num.evaluate(1) == (-1) ** result.rank * inner.den.evaluate(1))

    if face_check:
        via_faces = magnitude_by_face_decomposition(lattice, group)
        checks["face_decomposition_route"] = via_faces == mag
        if lattice.rank == 3:
            checks["rank3_closed_form"] = rank3_magnitude(
                n, lattice.chamber_count,
                lattice.rank3_line_multiplicities()) == mag
    if det_check or len(graph) <= DET_CHECK_AUTO_LIMIT:
        basis = free_involution_basis(graph, group)
        checks["varchenko_det_product"] = (
            varchenko_det(graph, basis) == varchenko_det_product(lattice))
    return checks


# ---------------------------------------------------------------------------
# face decomposition route


def magnitude_by_face_decomposition(lattice, group):
    """Magnitude via the recursion over localizations at flats.

    Every face of the arrangement is a chamber of the restriction to
    the flat it spans, so magnitude satisfies, for each flat X,

        Mag(A_X) = sum over Y <= X of  c[Y, X] * (-1)^rank(Y) q^#Y Mag(A_Y)

    where c[Y, X] counts chambers of the restriction of A_X to Y, by the
    Euler relation (``FaceLattice.counts_below``).  Solving for the X
    term gives the recursion.  Flats in one orbit of ``group`` have
    isomorphic localizations, so it runs once per flat orbit, in rank
    order (orbits come by their first flat), tallying c[Y, X] by the
    orbit of Y.  It reads only the flat poset and the hyperplane
    relabellings, so it is independent of the chamber-matrix route.
    The terms are summed as numerators over each distinct denominator
    of Mag(A_Y), and the sum is reduced once.
    """
    flats = lattice.flats
    if flats[-1].size != lattice.arrangement.n:
        raise CheckFailedError("top flat misses some hyperplanes")
    if flats[0].rank != 0:
        raise CheckFailedError("first flat is not the bottom")
    orbit_id, orbits = flat_orbits(lattice, group)
    mag_of = [RatFunc(ONE, ONE)]  # Mag(A_X) by orbit of X
    for members in orbits[1:]:
        x = flats[members[0]]
        tally = {}  # orbit of Y -> sum of c[Y, X] over Y < X in it
        for y, c in lattice.counts_below(x.index).items():
            if y != x.index:
                tally[orbit_id[y]] = tally.get(orbit_id[y], 0) + c
        groups = {}  # denominator of Mag(A_Y) -> sum of the term numerators
        for o, c in tally.items():
            f, m = flats[orbits[o][0]], mag_of[o]
            term = m.num.shift(f.size) * (-c if f.rank % 2 else c)
            groups[m.den] = groups.get(m.den, ZERO) + term
        num, den = ZERO, ONE
        for d, p in groups.items():
            num, den = num * d + p * den, den * d
        sign = -1 if x.rank % 2 else 1
        mag_of.append(
            reduce_fraction(num, den * (ONE - IntPoly.monomial(x.size, sign))))
    return mag_of[-1]


# ---------------------------------------------------------------------------
# rank-three closed form


def rank3_magnitude(n, chambers, multiplicities):
    """Closed form for essential rank-three arrangements, with m_k =
    ``multiplicities[k]`` rank-two flats on k hyperplanes (each restricts
    to two chambers); no chamber enumeration:

        Mag (1 + q^n) = chambers
                        - sum_k 4 k m_k q (1 - q^(k-1)) / ((1 + q)(1 - q^k)),

    summed over one denominator and reduced once.
    """
    num, den = IntPoly.const(chambers), ONE
    for k, m in sorted(multiplicities.items()):
        d = IntPoly((1, 1)) * (ONE - IntPoly.monomial(k))
        term = IntPoly.monomial(1, 4 * k * m) * (ONE - IntPoly.monomial(k - 1))
        num, den = num * d - term * den, den * d
    return reduce_fraction(num, den * (ONE + IntPoly.monomial(n)))


def alternating_violation(series):
    """First index where the sign pattern (-1)^l breaks, or None."""
    for i, c in enumerate(series):
        if c and (c > 0) != (i % 2 == 0):
            return i
    return None


# ---------------------------------------------------------------------------
# determinant of the full similarity matrix


def _compose(g, h):
    """The chamber permutation g after h."""
    return tuple(g[i] for i in h)


def _fixes_a_chamber(perm):
    return any(i == p for i, p in enumerate(perm))


def free_involution_basis(graph, group):
    """Basis of a free elementary abelian 2-subgroup E of the symmetry
    group, as chamber permutations, starting from the antipode.

    A breadth-first walk over the group from its generators greedily
    adds every involution that commutes with the basis so far and keeps
    each element of E fixed-point-free.  A free E has order dividing the
    chamber count, so the walk stops once |E| is the largest power of two
    dividing both that count and the group order, when the group is
    exhausted, or after INVOLUTION_WALK_LIMIT elements: any free E gives
    ``varchenko_det`` the same determinant.
    """
    size = len(graph)
    identity = tuple(range(size))
    common = gcd(size, group.order)
    target = common & -common
    basis = [tuple(graph.antipode(i) for i in range(size))]
    members = [identity, basis[0]]
    seen = {identity}
    queue = deque([identity])
    while queue and len(members) < target and len(seen) < INVOLUTION_WALK_LIMIT:
        g = queue.popleft()
        for h in group.generators:
            x = _compose(h, g)
            if x in seen:
                continue
            seen.add(x)
            queue.append(x)
            if (_compose(x, x) == identity
                    and all(_compose(x, b) == _compose(b, x) for b in basis)
                    and not any(_fixes_a_chamber(_compose(x, e))
                                for e in members)):
                basis.append(x)
                members += [_compose(x, e) for e in members]
    return tuple(basis)


def varchenko_det(graph, basis):
    """Exact determinant, split by the characters of a free elementary
    abelian 2-subgroup E of chamber isometries.

    ``basis`` holds k commuting involutions that generate E, |E| = 2**k
    (``free_involution_basis`` finds one); E must act freely.  Over the
    chambers e*r, for e in E and r an E-orbit representative, the matrix
    is a group matrix of E with blocks indexed by representatives.  The
    characters of E are the 2**k sign vectors s, chi_s(e) = +-1, so the
    symmetry-adapted basis is integral (Faessler-Stiefel) and

        det = prod over s of det M_s,
        M_s[i, j] = sum over e in E of chi_s(e) q^d(r_i, e r_j).

    Every M_s is the identity at q = 0 (only e = 1, i = j has distance
    0), so fraction-free elimination runs pivot-free.  E = {1, -I} is the
    antipodal split det(A + B) det(A - B).  Before eliminating, raises
    BudgetExceededError when the largest block's order times its
    Hadamard bit bound passes DET_BUDGET.
    """
    size = len(graph)
    identity = tuple(range(size))
    members = [identity]  # members[S] composes the basis elements in S
    for b in basis:
        if _compose(b, b) != identity or any(
                _compose(b, c) != _compose(c, b) for c in basis):
            raise CheckFailedError("basis is not commuting involutions")
        members += [_compose(b, e) for e in members]
    if any(_fixes_a_chamber(e) for e in members[1:]):
        raise CheckFailedError("involution group fixes a chamber")
    reps, covered = [], set()
    for c in range(size):
        if c not in covered:
            reps.append(c)
            covered.update(e[c] for e in members)
    dists = [[[graph.dist(i, e[j]) for e in members] for j in reps]
             for i in reps]
    blocks = []
    for s in range(len(members)):
        chi = [-1 if (s & t).bit_count() % 2 else 1
               for t in range(len(members))]
        block = []
        for row in dists:
            out = []
            for ds in row:
                coeffs = [0] * (graph.n + 1)
                for d, sign in zip(ds, chi):
                    coeffs[d] += sign
                out.append(IntPoly(coeffs))
            block.append(out)
        blocks.append(block)
    cost = len(reps) * max(_hadamard_bits(block) for block in blocks)
    if cost > DET_BUDGET:
        raise BudgetExceededError("determinant block order x bits",
                                  DET_BUDGET, cost, "drop --det-check")
    det = ONE
    for block in blocks:
        det = det * _bareiss_minors(block, [1] * len(block))[-1]
    return det


def varchenko_det_product(lattice):
    """Determinant from the flat data: product over flats above bottom of
    (1 - q^(2 #X)) raised to c^X times the beta invariant of the
    localization at X."""
    out = ONE
    for f in lattice.flats[1:]:
        beta = lattice.beta_invariant(f.index)
        if beta == 0:
            continue
        c = lattice.restriction_chamber_count(f.index)
        base = ONE - IntPoly.monomial(2 * f.size)
        out = out * base ** (c * beta)
    return out
