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
the base-2**b digits of its integer value.
"""

from dataclasses import dataclass
from math import isqrt

from .arrangement import orbits_of_permutations, tope_symmetries
from .errors import CheckFailedError
from .linalg import matrix_rank
from .polyq import (
    ONE,
    RAT_ONE,
    IntPoly,
    RatFunc,
    ZERO,
    PowerSeriesPrefix,
    cyclotomic_factor,
    is_denominator_cyclotomic,
    reduce_fraction,
    reverse_substitute,
    series_expand,
)

# magnitude series are reported through this power of q (11 coefficients)
SERIES_ORDER = 10
# the determinant check runs unasked on graphs with at most this many chambers
DET_CHECK_AUTO_LIMIT = 60


def _kronecker_decode(value, bits):
    """The IntPoly p with p(2**bits) == value and every coefficient of
    absolute value below 2**(bits - 1): value's signed base-2**bits digits."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    while value:
        coeffs.append(((value + half) & mask) - half)
        value = (value - coeffs[-1]) >> bits
    return IntPoly(coeffs)


def _bareiss_minors(matrix):
    """Leading principal minors by fraction-free forward elimination.

    ``matrix`` is a square list of IntPoly rows, possibly with extra
    columns on the right which are carried along.  Requires every
    leading principal minor except possibly the last to be nonzero,
    which holds here because the systems solved have constant term
    equal to an identity matrix.

    The elimination runs on the integers M(2**b); each minor is decoded
    by ``_kronecker_decode``.  Let H = prod_i max(1, sqrt(sum_j |m_ij|_1^2)).
    On |q| = 1, |m_ij(q)| <= |m_ij|_1, so by Hadamard every minor of M,
    bordered ones included, has modulus at most H there; a coefficient
    is at most the maximum modulus on |q| = 1, so it is at most H < 2**(b-1)
    and the decoding is exact (a minor is 0 iff its integer is).  Bareiss
    intermediates are minors of M(2**b), so every division is exact.
    """
    bound = 1
    for row in matrix:
        norms = sum(sum(abs(c) for c in p.coeffs) ** 2 for p in row)
        bound *= max(1, norms)
    bits = (isqrt(bound) + 1).bit_length() + 1
    x = 1 << bits
    a = [[p.evaluate(x) for p in row] for row in matrix]
    n = len(a)
    prev = 1
    minors = []
    for k in range(n):
        row_k = a[k]
        pk = row_k[k]
        if not pk and k < n - 1:
            raise CheckFailedError("zero pivot in fraction-free elimination")
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, len(row_i)):
                row_i[j], rem = divmod(pk * row_i[j] - aik * row_k[j], prev)
                if rem:
                    raise CheckFailedError(
                        "inexact division in fraction-free elimination")
            row_i[k] = 0
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


def magnitude_fraction(graph, group=None):
    """Magnitude as a reduced fraction of integer polynomials.

    Solves the collapsed system with a single bordered fraction-free
    elimination: the next-to-last minor is the system determinant and
    the last is (minus) the weighted solution sum times it.
    """
    orbit_id, orbits, group = chamber_orbits(graph, group)
    m = _orbit_matrix(graph, orbits)
    k = len(orbits)
    for i in range(k):
        m[i].append(ONE)
    weights = [IntPoly.const(len(o)) for o in orbits] + [ZERO]
    m.append(weights)
    minors = _bareiss_minors(m)
    det_m = minors[k - 1]
    det_border = minors[k]
    return reduce_fraction(-det_border, det_m)


@dataclass
class MagnitudeResult:
    """Magnitude with the values derived from it."""

    chamber_count: int
    n: int
    rank: int
    magnitude: RatFunc
    interior: RatFunc
    series: PowerSeriesPrefix
    interior_series: PowerSeriesPrefix
    cyclotomic_den: tuple
    orbit_count: int
    symmetry_order: int


def interior_magnitude(mag, rank, n):
    """Sign-and-shift companion of magnitude: (-1)^rank q^n times it."""
    sign = -1 if rank % 2 else 1
    num = mag.num.shift(n) * sign
    return reduce_fraction(num, mag.den)


def magnitude_direct(arrangement, graph, group):
    """Magnitude and its derived values, from the chamber metric."""
    orbit_id, orbits, group = chamber_orbits(graph, group)
    mag = magnitude_fraction(graph, group)
    n = arrangement.n
    rank = matrix_rank(arrangement.normals)
    interior = interior_magnitude(mag, rank, n)
    return MagnitudeResult(
        chamber_count=len(graph),
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


def structural_checks(graph, lattice, result, face_check=True,
                      det_check=False):
    """Every magnitude-level check of ``result``, by name.

    The paper's identities on the value itself (integral series, the
    one-point property, the degree gap, palindromic numerator and
    denominator, a cyclotomic denominator without Phi_1, inversion
    symmetry, the first two series coefficients, the interior at one);
    with ``face_check``, the face decomposition route over the flat
    poset and, in rank three, the closed form; and the determinant
    against its product formula when ``det_check`` is set or the graph
    has at most DET_CHECK_AUTO_LIMIT chambers.
    """
    mag, n, series = result.magnitude, result.n, result.series
    checks = {}
    checks["series_integral"] = (
        series.integral and result.interior_series.integral)
    checks["one_point_property"] = mag.evaluate(1) == 1
    checks["degree_gap_is_n"] = mag.degree_gap() == n
    checks["palindromic_num"] = mag.num.is_palindromic()
    checks["palindromic_den"] = mag.den.is_palindromic()
    checks["cyclotomic_denominator"] = is_denominator_cyclotomic(mag.den)[0]
    shifted = reduce_fraction(mag.num.shift(n), mag.den)
    checks["inversion_symmetry"] = reverse_substitute(mag) == shifted
    checks["series_chamber_count"] = series[0] == len(graph)
    checks["series_edge_count"] = series[1] == -2 * len(graph.edges())
    checks["interior_at_one"] = (
        result.interior.evaluate(1) == (-1) ** result.rank)

    if face_check:
        via_faces = magnitude_by_face_decomposition(lattice)
        checks["face_decomposition_route"] = via_faces == mag
        if lattice.rank == 3:
            stats = Rank3Stats.from_lattice(lattice)
            checks["rank3_closed_form"] = rank3_magnitude(stats) == mag
    if det_check or len(graph) <= DET_CHECK_AUTO_LIMIT:
        checks["varchenko_det_product"] = (
            varchenko_det(graph) == varchenko_det_product(lattice))
    return checks


# ---------------------------------------------------------------------------
# face decomposition route


def magnitude_by_face_decomposition(lattice):
    """Magnitude via the recursion over localizations at flats.

    Every face of the arrangement is a chamber of the restriction to
    the flat it spans, so magnitude satisfies, for each flat X,

        Mag(A_X) = sum over Y <= X of  c^Y [Y,X] * (-1)^rank(Y) q^#Y Mag(A_Y)

    where c^Y[Y,X] counts chambers of the restriction of A_X to Y.
    Solving for the X term gives the recursion used here.  For flats
    below the top, c^Y[Y,X] is the interval Moebius sum; at the top
    level the counts are taken from actual restriction enumerations,
    which crosses the two routes.  The terms for X are summed as
    numerators over each distinct denominator of Mag(A_Y), and the sum
    is reduced once.
    """
    flats = lattice.flats
    top = flats[-1]
    if top.size != lattice.arrangement.n:
        raise CheckFailedError("top flat misses some hyperplanes")
    if flats[0].rank != 0:
        raise CheckFailedError("first flat is not the bottom")
    mag_of = [RAT_ONE]  # Mag(A_X) by flat index
    for x in flats[1:]:
        groups = {}  # denominator of Mag(A_Y) -> sum of the term numerators
        for y in lattice.lower(x.index)[:-1]:  # the last one is x itself
            if x is top:
                c = lattice.restriction_chamber_count(y)
            else:
                c = lattice.interval_chamber_count(y, x.index)
            f = flats[y]
            sign = -1 if f.rank % 2 else 1
            term = mag_of[y].num.shift(f.size) * (sign * c)
            den = mag_of[y].den
            groups[den] = groups.get(den, ZERO) + term
        num, den = ZERO, ONE
        for d, p in groups.items():
            num, den = num * d + p * den, den * d
        sign = -1 if x.rank % 2 else 1
        mag_of.append(
            reduce_fraction(num, den * (ONE - IntPoly.monomial(x.size, sign))))
    return mag_of[-1]


# ---------------------------------------------------------------------------
# rank-three closed form


@dataclass(frozen=True)
class Rank3Stats:
    """Combinatorial data determining magnitude in rank three.

    ``line_weights`` maps the number of hyperplanes through a rank-two
    flat to the total chamber count of the restrictions to such flats.
    Each restriction is a point on a line, contributing two chambers,
    so the weight is twice the number of flats of that size.
    """

    n: int
    chambers: int
    line_weights: dict

    @staticmethod
    def from_lattice(lattice):
        if lattice.rank != 3:
            raise ValueError("rank-three statistics need a rank-three poset")
        weights = {
            k: 2 * v for k, v in lattice.rank3_line_multiplicities().items()
        }
        return Rank3Stats(
            n=lattice.arrangement.n,
            chambers=lattice.chamber_count,
            line_weights=weights,
        )


def rank3_magnitude(stats):
    """Closed form for essential rank-three arrangements.

    Needs only the hyperplane count, the chamber count, and the line
    weights; no chamber enumeration.
    """
    q = IntPoly.monomial(1)
    acc = RatFunc.of(IntPoly.const(stats.chambers))
    one_plus_q = ONE + q
    for k, weight in sorted(stats.line_weights.items()):
        num = IntPoly.monomial(1, 2 * k * weight) * (ONE - IntPoly.monomial(k - 1))
        den = one_plus_q * (ONE - IntPoly.monomial(k))
        acc = acc - RatFunc(num, den)
    total_den = ONE + IntPoly.monomial(stats.n)
    acc = acc / RatFunc.of(total_den)
    return reduce_fraction(acc.num, acc.den)


def alternating_violation(series):
    """First index where the sign pattern (-1)^l breaks, or None."""
    for i, c in enumerate(series):
        if c and (c > 0) != (i % 2 == 0):
            return i
    return None


# ---------------------------------------------------------------------------
# determinant of the full similarity matrix


def varchenko_det(graph):
    """Exact determinant, split over the antipodal pairing.

    The antipodal map is a fixed-point-free involution commuting with
    the metric, so in a paired basis the matrix is [[A, B], [B, A]] and
    the determinant factors as det(A+B) det(A-B).  Both factors are
    identity at q = 0, so fraction-free elimination runs pivot-free.
    """
    size = len(graph)
    n = graph.n
    reps = [i for i in range(size) if graph.masks[i] < graph.masks[graph.antipode(i)]]
    if 2 * len(reps) != size:
        raise CheckFailedError("antipodal map has a fixed chamber")
    plus = []
    minus = []
    for i in reps:
        row_p = []
        row_m = []
        for j in reps:
            d = graph.dist(i, j)
            near = IntPoly.monomial(d)
            far = IntPoly.monomial(n - d)
            row_p.append(near + far)
            row_m.append(near - far)
        plus.append(row_p)
        minus.append(row_m)
    det_p = _bareiss_minors(plus)[-1] if plus else ONE
    det_m = _bareiss_minors(minus)[-1] if minus else ONE
    return det_p * det_m


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


# ---------------------------------------------------------------------------
# distance profile


def distance_profile(graph):
    """Per-chamber generating polynomials of distances to all chambers."""
    rows = []
    for i in range(len(graph)):
        counts = [0] * (graph.n + 1)
        for j in range(len(graph)):
            counts[graph.dist(i, j)] += 1
        rows.append(IntPoly(counts))
    return rows


def profile_uniform(graph):
    """Whether every chamber sees the same distance profile.

    A uniform profile is implied by a vertex-transitive symmetry group,
    so non-uniformity certifies non-transitivity; the converse need not
    hold.
    """
    rows = distance_profile(graph)
    distinct = {r.coeffs for r in rows}
    return len(distinct) == 1, len(distinct)
