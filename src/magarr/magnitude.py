"""Magnitude of an arrangement as an exact rational function in q.

The similarity matrix of the chamber metric has entries q^(distance).
Magnitude is the sum of the entries of its inverse applied to the all-
ones vector.  Symmetries of the arrangement act on chambers and commute
with the matrix, so the solution is constant on orbits; the computation
collapses to one row per orbit.  At q = 0 the collapsed matrix is the
identity, so fraction-free elimination never needs to pivot.  Scaled by
the orbit sizes, the system is symmetric, so only its upper triangle is
eliminated.

Every matrix eliminated here is palindromic.  The antipode -I lies in
the symmetry group and d(c, -c') = n - d(c, c'), so each entry of the
collapsed system M satisfies M_ij(q) = q^n M_ij(1/q); each determinant
block below satisfies it up to the sign chi(-I) of its character.
Dividing every entry by one g in {1, 1 + q, 1 - q, 1 - q^2}, chosen by
that sign and the parity of n, leaves S = M / g with entries
palindromic of even degree 2h, and such an entry is q^h R(y), R a
polynomial of degree h in y = q + 1/q: q^t + q^-t = V_t(y) for the
Lucas polynomials V_0 = 2, V_1 = y, V_t = y V_(t-1) - V_(t-2).  So the
elimination runs on the integers R(Y) at Y = 2**b, half as long as the
values of M at q = 2**b, and each minor of order k it reads is q^(kh)
times a polynomial of degree kh in y, decoded from its integer by
rounding against V_t(Y) from the top term down.  That is exact while
every coefficient is below (Y - 2)/2, as V_t(Y) >= (Y - 1) V_(t-1)(Y)
keeps the lower terms under V_T(Y)/2, and b is taken from a Hadamard
bound on the coefficients of every minor of S with that margin.

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
from itertools import accumulate
from math import gcd, isqrt
from operator import mul, neg

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


def _lucas(bits, top):
    """[1, V_1(Y), ..., V_top(Y)] at Y = 2**bits: the values of the basis
    1, q^t + q^-t (t >= 1) of Laurent polynomials fixed by q -> 1/q."""
    y = 1 << bits
    values = [2, y]
    while len(values) <= top:
        values.append(y * values[-1] - values[-2])
    values[0] = 1
    return values[:top + 1]


def _lucas_decode(value, center, bits):
    """The IntPoly p, palindromic of degree 2 ``center``, whose upper
    coefficients c_center, ..., c_2center give value = c_center +
    sum_t c_(center+t) V_t(2**bits), when every |c| < (2**bits - 2)/2."""
    lucas = _lucas(bits, center)
    upper = [0] * (center + 1)
    for t in range(center, 0, -1):
        v = lucas[t]
        upper[t] = (value + v // 2) // v
        value -= upper[t] * v
    upper[0] = value
    return IntPoly(upper[:0:-1] + upper)


# g by (the sign chi(-I) of every entry, n % 2): M / g is palindromic of
# even degree 2h = n - deg g.  A palindromic entry of odd degree vanishes
# at q = -1, an anti-palindromic one at q = 1 and, of even degree, at -1
_DIVISORS = {
    (1, 0): ONE,
    (1, 1): IntPoly((1, 1)),
    (-1, 1): IntPoly((1, -1)),
    (-1, 0): IntPoly((1, 0, -1)),
}
# each g as +-prod Phi_k, for the determinant in factored form
_DIVISOR_FACTORS = {g: cyclotomic_factor(g, 2) for g in _DIVISORS.values()}


def _halved(matrix, n):
    """(g, h, S) with S = ``matrix`` / g and every entry of S palindromic
    of degree 2h.

    Every entry M_ij must have degree at most n and M_ij(q) = s q^n
    M_ij(1/q) for one sign s, read off entry (0, 0); an entry that does
    not raises CheckFailedError naming it.  That holds exactly when g
    divides M_ij and leaves a quotient palindromic of degree n - deg g,
    which is what is checked.  Entry (0, 0) of each system solved here
    has constant term 1, so its q^n coefficient is s when the symmetries
    hold the antipode, and 0 when they miss it.
    """
    def halve(p, g):
        c = list(p.coeffs)
        if len(c) > n + 1:
            return None
        c += [0] * (n + 1 - len(c))
        k, a = g.degree, g.leading()
        if not k:
            return p if c == c[::-1] else None
        # p = (1 + a q^k) s gives s_i = p_i - a s_(i-k): a prefix sum in
        # each residue class mod k, of alternating signs when a = 1
        if a > 0:
            c[1::2] = map(neg, c[1::2])
        for r in range(k):
            c[r::k] = accumulate(c[r::k])
        if a > 0:
            c[1::2] = map(neg, c[1::2])
        if any(c[n + 1 - k:]):
            return None
        del c[n + 1 - k:]
        return IntPoly(c) if c == c[::-1] else None

    for sign in (1, -1):
        g = _DIVISORS[sign, n % 2]
        if halve(matrix[0][0], g) is not None:
            break
    else:
        raise CheckFailedError(f"entry (0, 0) is neither palindromic nor "
                               f"anti-palindromic of degree {n}")
    kind = "palindromic" if sign > 0 else "anti-palindromic"
    halved = []
    for i, row in enumerate(matrix):
        halved.append([])
        for j, p in enumerate(row):
            s = halve(p, g)
            if s is None:
                raise CheckFailedError(
                    f"entry ({i}, {j}) is not {kind} of degree {n}")
            halved[-1].append(s)
    return g, (n - g.degree) // 2, halved


def _bits_over(square):
    """The b of ``_bareiss_minors`` for H**2 = ``square``: 2**(b-1) > H + 1."""
    return (isqrt(square) + 1).bit_length() + 1


def _hadamard_bits(matrix):
    """The b of ``_bareiss_minors`` at the Hadamard bound
    H = prod_i max(1, sqrt(sum_j |m_ij|_1^2)) on every minor's coefficients."""
    square = 1
    for row in matrix:
        square *= max(1, sum(sum(map(abs, p.coeffs)) ** 2 for p in row))
    return _bits_over(square)


def _check_work(order, n, bits, hint):
    """Raise BudgetExceededError when ``_bareiss_minors`` at ``bits`` bits on
    an order x order matrix of degree at most n passes ELIMINATION_BUDGET."""
    work = order ** 3 * (order * n * bits) ** 2
    if work > ELIMINATION_BUDGET:
        raise BudgetExceededError("elimination work order^3 (order n bits)^2",
                                  ELIMINATION_BUDGET, work, hint)


def _bareiss_minors(matrix, weights, h, bits):
    """Leading principal minors by symmetric fraction-free elimination,
    as integers for ``_lucas_decode``.

    ``matrix`` is a square list of IntPoly rows S, each entry palindromic
    of degree 2h, with w_i S[i][j] = w_j S[j][i] for the positive integer
    ``weights`` w.  Requires every leading principal minor except
    possibly the last to be nonzero, which holds here because the systems
    solved have constant term equal to an identity matrix.

    An entry is q^h R(y), y = q + 1/q, and the elimination runs on the
    integers A = R(Y), Y = 2**b: entry c_h + sum_t c_(h+t) V_t(Y).  The
    minor of order k of S is then q^(kh) times the same minor D of R, a
    polynomial of degree at most kh in y whose V_t coefficients are the
    coefficients c_(kh+t) of the minor, so ``_lucas_decode`` about kh
    reads it back from det A_k = D(Y).  With b = ``bits`` at the Hadamard
    bound H of S (``_hadamard_bits``), the decoding is exact: on |q| = 1,
    |s_ij(q)| <= |s_ij|_1, so every minor of S, bordered ones included,
    has modulus at most H there, and a coefficient is at most the
    maximum modulus on |q| = 1, so |c| <= floor(H) <= 2**(b-1) - 2 <
    (Y - 2)/2 (``_bits_over``).  As V_1(Y) = Y and V_t(Y) >= (Y - 1)
    V_(t-1)(Y), the terms below V_T(Y) sum to at most floor(H) V_T(Y) /
    (Y - 2) < V_T(Y) / 2, so rounding to the nearest multiple of V_T(Y),
    from the top term down, reads every coefficient; a minor is 0 iff its
    integer is.
    Entering step k, entry (i, j), i, j >= k, is the bordered minor
    det A[{0..k-1, i}, {0..k-1, j}] (Bareiss), so every division is exact.
    D A is symmetric for D = diag(w), so A^T = D A D^-1 and w_i a[i][j] =
    w_j a[j][i] at every step: step k updates only j >= i > k and reads
    a[i][k] = a[k][i] w_k / w_i, an exact division.
    """
    lucas = _lucas(bits, h)
    a = [[sum(map(mul, p.coeffs[h:], lucas)) for p in row] for row in matrix]
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
    return minors


def chamber_orbits(graph, group=None):
    """Orbit ids, orbit member lists, and the symmetry group used."""
    if group is None:
        group = tope_symmetries(graph)
    orbit_id, orbits = orbits_of_permutations(len(graph), group.generators)
    return orbit_id, orbits, group


def orbit_matrix(graph, orbits):
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

    Solves the collapsed system M = g S (``_halved``) with a single
    bordered fraction-free elimination of [[S, q^h 1], [q^h w^T, 0]],
    every entry palindromic of degree 2h: the next-to-last minor is
    det S, and the last is q^(2h) times det [[S, 1], [w^T, 0]], which is
    minus the weighted solution sum of S times det S.  With w the orbit
    sizes, the bordered matrix is symmetric under the weights (w, 1), and
    the magnitude is that sum over g.  Returns (magnitude, (M, (g,
    det S))), det M = g^order det S in the factored form of every
    determinant block; M has one row and column per chamber orbit, led
    by its least chamber, and ``varchenko_det`` reuses (g, det S) for a
    block equal to M.  Column j's entries of M count |orbit j| chambers,
    so before M is built the work is estimated at the Hadamard bits of
    bordered M, H**2 = (T + 1)**k T with T = sum_j |orbit j|^2 over k
    orbits; the elimination takes the Hadamard bits of bordered S.
    """
    _, orbits, group = chamber_orbits(graph, group)
    weights = [len(o) for o in orbits] + [1]
    s = sum(w * w for w in weights[:-1])
    _check_work(len(weights), graph.n, _bits_over((s + 1) ** len(orbits) * s),
                "try a smaller arrangement")
    system = orbit_matrix(graph, orbits)
    g, h, halved = _halved(system, graph.n)
    rim = IntPoly.monomial(h)
    m = [row + [rim] for row in halved]
    m.append([rim * w for w in weights[:-1]] + [ZERO])
    bits = _hadamard_bits(m)
    *_, det_s, det_border = _bareiss_minors(m, weights, h, bits)
    order = len(orbits)
    det_s = _lucas_decode(det_s, order * h, bits)
    # q^(2h) is a factor of the last minor: decode its cofactor
    border = _lucas_decode(det_border, (order - 1) * h, bits)
    return reduce_fraction(-border, det_s * g), (system, (g, det_s))


@dataclass
class MagnitudeResult:
    """Magnitude with the values derived from it, and the collapsed
    system (M, (g, det S)), M = g S, it was solved from.
    ``cyclotomic_den`` and ``cyclotomic_rem`` are the cyclotomic factors
    of the denominator and what is left of it."""

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
    1976) of the 2**(w d(r_i, e_t r_j)), w = k + 2: each coefficient is
    at most 2**k in absolute value, so a block is read at q = 2**w.
    Every M_s is the identity at q = 0, so elimination runs pivot-free.
    E must hold the antipode -I: then M_s(q) = chi_s(-I) q^n M_s(1/q),
    and ``_halved`` names the first entry where that fails.  E = {1, -I}
    is the antipodal split det(A + B) det(A - B).

    Each distinct block is eliminated once, after ``_check_work`` on the
    one with the most Hadamard bits, unless it equals the magnitude
    system K of ``known`` = (K, (g, det S)), K = g S, as M_0 does when E
    has the chamber orbits of the symmetry group; K is compared by its
    values at q = 2**w, and only the blocks eliminated are decoded.
    Every block M_s = g S, reused or eliminated, has det M_s = g^order
    det S, so det S is factored with kmax = 2n and order times the
    exponents of g are added; they count once per equal block, and the
    unit multiplies the blocks' remainders and signs, +-1 when every
    block factors.
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
    # every block coefficient is at most |E| = 2**(w - 2) in absolute
    # value, so K equals a block exactly when its coefficients are below
    # 2**(w - 1) and its entries take the block's values at q = 2**w
    half = 1 << (w - 1)
    fits = all(-half < c < half for row in known[0] for p in row
               for c in p.coeffs)
    packed = tuple(tuple(p.evaluate(1 << w) for p in row)
                   for row in (known[0] if fits else ()))
    blocks = [None if block == packed else
              [[_kronecker_decode(x, w) for x in row] for row in block]
              for block in counts]
    bits = [_hadamard_bits(block) for block in blocks if block]
    if bits:
        _check_work(len(orbits), graph.n, max(bits), "drop --det-check")
    factors, unit = Counter(), ONE
    for block, count in zip(blocks, counts.values()):
        g, det = known[1]
        if block:
            g, h, halved = _halved(block, graph.n)
            b = _hadamard_bits(halved)
            det = _lucas_decode(
                _bareiss_minors(halved, [1] * len(block), h, b)[-1],
                len(block) * h, b)
        # det M_s = g^order det S
        g_factors, g_unit = _DIVISOR_FACTORS[g]
        block_factors, rem = cyclotomic_factor(det, 2 * graph.n)
        for k, e in block_factors:
            factors[k] += count * e
        for k, e in g_factors:
            factors[k] += count * len(orbits) * e
        for _ in range(count):
            unit = unit * rem
        if count * len(orbits) % 2:
            unit = unit * g_unit
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
