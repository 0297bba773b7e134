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
identity at q = 0, and symmetric since E consists of involutions.  A work
estimate stops each elimination past one budget before it starts.

The determinant is checked against its product formula in factored
form, +-prod Phi_k**e_k; by unique factorization in Z[q] the forms agree
exactly when the polynomials do.  ``cyclotomic_factor`` finds every Phi_k
with k <= 2n, for n hyperplanes, and no other divides det Z: that is the
product over flats X of (1 - q^(2 #X))^(c^X beta(A_X)), whose factors
are Phi_k with k | 2 #X <= 2n.  Each block determinant divides det Z,
and so does the reduced magnitude denominator, by Cramer's rule.
"""

from collections import Counter, deque
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
# the search for a free involution basis visits at most this many elements
INVOLUTION_WALK_LIMIT = 4096
# one ``_bareiss_minors`` may do at most this work W = order^3 (order n bits)^2
# (order^3 steps on integers of up to order n bits bits); every determinant
# block of a graph with at most DET_CHECK_AUTO_LIMIT chambers needs less
ELIMINATION_BUDGET = 250_000_000_000_000


def _kronecker_decode(value, bits):
    """The IntPoly p with p(2**bits) == value and every coefficient of
    absolute value below 2**(bits - 1): value's signed base-2**bits digits."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    while value:
        coeffs.append(((value + half) & mask) - half)
        value = (value - coeffs[-1]) >> bits
    return IntPoly(coeffs)


def _bits_over(square):
    """The b of ``_bareiss_minors`` for H**2 = ``square``: 2**(b - 1) > H."""
    return (isqrt(square) + 1).bit_length() + 1


def _hadamard_bits(matrix):
    """The b of ``_bareiss_minors`` at the Hadamard bound
    H = prod_i max(1, sqrt(sum_j |m_ij|_1^2)) on every minor's coefficients."""
    square = 1
    for row in matrix:
        square *= max(1, sum(sum(abs(c) for c in p.coeffs) ** 2 for p in row))
    return _bits_over(square)


def _check_work(order, n, bits, hint):
    """Raise BudgetExceededError when ``_bareiss_minors`` at ``bits`` bits on
    an order x order matrix of degree at most n passes ELIMINATION_BUDGET."""
    work = order ** 3 * (order * n * bits) ** 2
    if work > ELIMINATION_BUDGET:
        raise BudgetExceededError("elimination work order^3 (order n bits)^2",
                                  ELIMINATION_BUDGET, work, hint)


def _bareiss_minors(matrix, weights, bits):
    """Leading principal minors by symmetric fraction-free elimination.

    ``matrix`` is a square list of IntPoly rows B with w_i B[i][j] =
    w_j B[j][i] for the positive integer ``weights`` w.  Requires every
    leading principal minor except possibly the last to be nonzero,
    which holds here because the systems solved have constant term
    equal to an identity matrix.

    The elimination runs on the integers A = B(2**b), with b = ``bits``
    at the Hadamard bound, which the caller's ``_check_work`` reads too;
    each minor is decoded by ``_kronecker_decode``.
    On |q| = 1, |m_ij(q)| <= |m_ij|_1, so by Hadamard every minor of B,
    bordered ones included, has modulus at most H there; a coefficient
    is at most the maximum modulus on |q| = 1, so it is at most H < 2**(b-1)
    and the decoding is exact (a minor is 0 iff its integer is).
    Entering step k, entry (i, j), i, j >= k, is the bordered minor
    det A[{0..k-1, i}, {0..k-1, j}] (Bareiss), so every division is exact.
    D A is symmetric for D = diag(w), so A^T = D A D^-1 and w_i a[i][j] =
    w_j a[j][i] at every step: step k updates only j >= i > k and reads
    a[i][k] = a[k][i] w_k / w_i, an exact division.

    b stays bit-granular rather than whole bytes as in
    ``linalg.pack_digits``: rounding it up (53 to 56 bits on the 17 x 17
    system of six planes in general position in R^3) would slow the
    elimination, whose cost grows about with the square of b, by more
    than byte-wise decoding of the n minors would save.
    """
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
    """Magnitude as a reduced fraction of integer polynomials, and the
    system it solves.

    Solves the collapsed system M with a single bordered fraction-free
    elimination: the next-to-last minor is det M and the last is (minus)
    the weighted solution sum times it.  With w the orbit sizes,
    [[M, 1], [w^T, 0]] is symmetric under the weights (w, 1).  Returns
    (magnitude, (M, det M)); M has one row and column per chamber orbit,
    led by its least chamber, and ``varchenko_det`` reuses det M for a
    block equal to M.  Column j's entries count |orbit j| chambers, so
    H**2 = (S + 1)**k S with S = sum_j |orbit j|^2 over k orbits.
    """
    _, orbits, group = chamber_orbits(graph, group)
    weights = [len(o) for o in orbits] + [1]
    s = sum(w * w for w in weights[:-1])
    bits = _bits_over((s + 1) ** len(orbits) * s)
    _check_work(len(weights), graph.n, bits, "try a smaller arrangement")
    system = _orbit_matrix(graph, orbits)
    m = [row + [ONE] for row in system]
    m.append([IntPoly.const(w) for w in weights[:-1]] + [ZERO])
    *_, det_m, det_border = _bareiss_minors(m, weights, bits)
    return reduce_fraction(-det_border, det_m), (system, det_m)


@dataclass
class MagnitudeResult:
    """Magnitude with the values derived from it, and the collapsed
    system (M, det M) it was solved from.  ``cyclotomic_den`` and
    ``cyclotomic_rem`` are the cyclotomic factors of the denominator and
    what is left of it."""

    n: int
    rank: int
    magnitude: RatFunc
    interior: RatFunc
    series: tuple
    interior_series: tuple
    cyclotomic_den: tuple
    cyclotomic_rem: IntPoly
    orbit_count: int
    symmetry_order: int
    system: tuple


def interior_magnitude(mag, rank, n):
    """Sign-and-shift companion of magnitude: (-1)^rank q^n times it."""
    sign = -1 if rank % 2 else 1
    num = mag.num.shift(n) * sign
    return reduce_fraction(num, mag.den)


def magnitude_direct(graph, group):
    """Magnitude and its derived values, from the chamber metric."""
    mag, system = magnitude_fraction(graph, group)
    n = graph.n
    rank = matrix_rank(graph.arrangement.normals)
    interior = interior_magnitude(mag, rank, n)
    factors, rem = cyclotomic_factor(mag.den, 2 * n)
    return MagnitudeResult(
        n=n,
        rank=rank,
        magnitude=mag,
        interior=interior,
        series=series_expand(mag, SERIES_ORDER),
        interior_series=series_expand(interior, SERIES_ORDER),
        cyclotomic_den=factors,
        cyclotomic_rem=rem,
        orbit_count=len(system[0]),
        symmetry_order=group.order,
        system=system,
    )


def structural_checks(lattice, group, result, face_check, det_check):
    """Every magnitude-level check of ``result``, by name.

    The paper's identities on the value itself (integral series, the
    one-point property, the degree gap, palindromic numerator and
    denominator, a cyclotomic denominator without Phi_1, inversion
    symmetry, the first two series coefficients, the interior at one);
    with ``face_check``, the face decomposition route over the flat
    poset and, in rank three, the closed form; and the determinant,
    split over a free involution subgroup of ``group``, against its
    product formula when ``det_check`` is set or the graph has at most
    DET_CHECK_AUTO_LIMIT chambers.  A determinant block equal to the
    magnitude system takes its determinant from ``result.system``.
    """
    graph = lattice.graph
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
    checks["cyclotomic_denominator"] = (
        result.cyclotomic_rem in (ONE, -ONE)
        and all(k != 1 for k, _ in result.cyclotomic_den))
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
                n, len(graph), lattice.rank3_line_multiplicities()) == mag
    if det_check or len(graph) <= DET_CHECK_AUTO_LIMIT:
        basis = free_involution_basis(graph, group)
        checks["varchenko_det_product"] = (
            varchenko_det(graph, basis, result.system)
            == varchenko_det_product(lattice))
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
    if flats[-1].size != lattice.graph.n:
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


def free_involution_basis(graph, group):
    """Basis of a free elementary abelian 2-subgroup E of the symmetry
    group, as chamber permutations, starting from the antipode.

    A breadth-first walk over the group from its generators greedily
    adds every involution x that commutes with the basis so far and sends
    no chamber c into its E-orbit (x e fixes c exactly when x(c) = e(c)),
    each orbit named by its least chamber.  A free E has order dividing
    the chamber count, so the walk stops once |E| is the largest power of
    two dividing both that count and the group order, when the group is
    exhausted, or after INVOLUTION_WALK_LIMIT elements: any free E gives
    ``varchenko_det`` the same determinant.
    """
    size = len(graph)
    identity = tuple(range(size))
    common = gcd(size, group.order)
    target = common & -common
    basis = [tuple(graph.antipode(i) for i in range(size))]
    orbit = [min(c, a) for c, a in enumerate(basis[0])]
    seen = {identity}
    queue = deque([identity])
    while queue and 2 ** len(basis) < target and len(seen) < INVOLUTION_WALK_LIMIT:
        g = queue.popleft()
        for h in group.generators:
            x = _compose(h, g)
            if x in seen:
                continue
            seen.add(x)
            queue.append(x)
            if (_compose(x, x) == identity
                    and all(_compose(x, b) == _compose(b, x) for b in basis)
                    and all(orbit[c] != orbit[xc] for c, xc in enumerate(x))):
                basis.append(x)
                orbit = [min(o, orbit[xc]) for o, xc in zip(orbit, x)]
    return tuple(basis)


def varchenko_det(graph, basis, known):
    """Exact determinant in factored form, split by the characters of a
    free elementary abelian 2-subgroup E of chamber isometries.

    ``basis`` holds k commuting involutions that generate E, |E| = 2**k
    (``free_involution_basis`` finds one); E must act freely.  With e_t
    the product of the basis elements in the bits of t and r_i the least
    chamber of the i-th E-orbit, the characters chi_s(e_t) = (-1)**|s & t|
    make the symmetry-adapted basis integral (Faessler-Stiefel), and

        det = prod over s of det M_s,
        M_s[i, j] = sum over t of chi_s(e_t) q^d(r_i, e_t r_j),

    for every s at once by a Walsh-Hadamard transform (Fino and Algazi
    1976) of the 2**(w d(r_i, e_t r_j)), w = k + 2, decoded at q = 2**w
    since each coefficient is at most 2**k in absolute value.  Every M_s
    is the identity at q = 0, so elimination runs pivot-free.  E = {1, -I}
    is the antipodal split det(A + B) det(A - B).

    Each distinct block is eliminated once, after ``_check_work`` on the
    one with the most Hadamard bits, unless it equals the magnitude
    system K of ``known`` = (K, det K), as M_0 does when E has the
    chamber orbits of the symmetry group.  Its determinant is factored
    with kmax = 2n and its exponents count once per equal block; the unit
    multiplies the blocks' remainders, +-1 when every block factors.
    """
    size = len(graph)
    identity = tuple(range(size))
    for b in basis:
        if _compose(b, b) != identity or any(
                _compose(b, c) != _compose(c, b) for c in basis):
            raise CheckFailedError("basis is not commuting involutions")
    orbits, covered = [], set()  # orbits[i][t] = e_t r_i
    for c in range(size):
        if c not in covered:
            orbits.append([c])
            for b in basis:
                orbits[-1] += [b[x] for x in orbits[-1]]
            covered.update(orbits[-1])
    order = 1 << len(basis)
    if len(orbits) * order != size:
        raise CheckFailedError("involution group fixes a chamber")
    w = len(basis) + 2
    rows = []  # rows[i][s] = row i of M_s, its entries at q = 2**w
    for o in orbits:
        row = []
        for target in orbits:
            v = [1 << w * graph.dist(o[0], c) for c in target]
            for h in (1 << i for i in range(len(basis))):
                for t in range(order):
                    if not t & h:
                        v[t], v[t | h] = v[t] + v[t | h], v[t] - v[t | h]
            row.append(v)
        rows.append(list(zip(*row)))
    counts = Counter(zip(*rows))
    blocks = [[[_kronecker_decode(x, w) for x in row] for row in block]
              for block in counts]
    bits = [None if block == known[0] else _hadamard_bits(block)
            for block in blocks]
    if any(bits):
        _check_work(len(orbits), graph.n, max(filter(None, bits)),
                    "drop --det-check")
    factors, unit = Counter(), ONE
    for block, b, count in zip(blocks, bits, counts.values()):
        det = known[1] if b is None else _bareiss_minors(
            block, [1] * len(block), b)[-1]
        block_factors, rem = cyclotomic_factor(det, 2 * graph.n)
        for k, e in block_factors:
            factors[k] += count * e
        for _ in range(count):
            unit = unit * rem
    return tuple(sorted(factors.items())), unit


def varchenko_det_product(lattice):
    """Determinant from the flat data in factored form (factors, unit):
    the product over flats X above bottom of (1 - q^(2 #X))^(c^X beta(A_X)),
    with 1 - q^m = -prod_(k | m) Phi_k.  So e_k sums c^X beta(A_X) over
    the X with k | 2 #X, and the unit is -1 to the sum of them all."""
    factors, total = Counter(), 0
    for f in lattice.flats[1:]:
        beta = lattice.beta_invariant(f.index)
        if beta:
            e = beta * lattice.restriction_chamber_count(f.index)
            total += e
            for k in range(1, 2 * f.size + 1):
                if 2 * f.size % k == 0:
                    factors[k] += e
    return tuple(sorted(factors.items())), IntPoly.const((-1) ** total)
