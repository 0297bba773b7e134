"""Exact linear algebra: row reduction, feasibility, and integral homology."""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import smith_by_minors
from magarr import linalg
from magarr.linalg import (
    clear_denominators,
    complex_homology,
    matrix_rank,
    nullspace,
    remainder,
    rref,
    snf_diagonal,
)


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced == [(1, 0, 1), (0, 1, 1)]
    # integer rows, primitive, positive pivot, cleared above and below
    reduced, pivots = rref([[0, 2, 4, 3], [3, -6, 0, 1]])
    assert pivots == [0, 1]
    assert reduced == [(3, 0, 12, 10), (0, 2, 4, 3)]
    assert matrix_rank(rows) == 2
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0]]) == 0


def test_row_space_membership():
    reduced, pivots = rref([[1, 0, 1], [0, 1, 1]])
    assert not any(remainder(reduced, pivots, [3, 2, 5]))
    assert list(remainder(reduced, pivots, [3, 2, 4])) == [0, 0, -1]
    # a positive multiple of the vector minus rows, zero in the pivot
    # columns, so parallel vectors have parallel remainders
    reduced, pivots = rref([[2, 0, 1]])
    assert list(remainder(reduced, pivots, [1, 1, 0])) == [0, 2, -1]
    assert list(remainder(reduced, pivots, [-3, -3, 0])) == [0, -6, 3]
    assert list(remainder(reduced, pivots, [5, 1, 2])) == [0, 2, -1]


def test_nullspace_annihilates():
    rows = [[1, 1, 1], [1, -1, 0]]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0
    assert len(nullspace([[1, 1, 1]], 3)) == 2


def test_clear_denominators_is_primitive():
    vec = [Fraction(1, 2), Fraction(2, 3), Fraction(0)]
    cleared = clear_denominators(vec)
    assert all(isinstance(x, int) for x in cleared)
    # same direction, coprime entries
    assert cleared[0] * vec[1] == cleared[1] * vec[0]
    from math import gcd

    assert gcd(gcd(cleared[0], cleared[1]), cleared[2]) == 1


def test_snf_known_matrix():
    entries = {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}
    assert snf_diagonal(entries) == (2, 4)


def test_snf_divisibility_chain():
    entries = {(0, 0): 6, (0, 1): 4, (1, 0): 10, (1, 1): 4, (2, 1): 8}
    diag = snf_diagonal(entries)
    assert len(diag) == 2
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_snf_empty_and_identity():
    assert snf_diagonal({}) == ()
    eye = {(i, i): 1 for i in range(3)}
    assert snf_diagonal(eye) == (1, 1, 1)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _random_sparse_matrix(rng):
    """Up to 5 x 5, entries up to +-30, on non-contiguous keys.  Some
    entries are stored as zeros and some rows and columns are missing,
    and a third of the matrices factor through a narrower inner
    dimension, so most of those are rank-deficient."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    if rng.random() < 1 / 3:
        inner = rng.randint(1, max(1, min(nrows, ncols) - 1))
        left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(inner)]
        matrix = _matmul(left, right)
    else:
        density = rng.random()
        matrix = [[rng.randint(-30, 30) if rng.random() < density else 0
                   for _ in range(ncols)] for _ in range(nrows)]
    row_keys = rng.sample(range(-40, 40), nrows)
    col_keys = rng.sample(range(10**6, 10**6 + 80), ncols)
    return {(i, j): v
            for i, row in zip(row_keys, matrix)
            for j, v in zip(col_keys, row) if v or rng.random() < 0.2}


def test_snf_matches_minors_oracle():
    cases = [
        {(0, 0): 2, (1, 1): 3},  # the gcd/lcm pass: (1, 6)
        {(0, 0): 4, (0, 5): 0, (7, 5): 0, (3, 2): 6},  # zero row and column
        {(0, 0): 2, (0, 1): 4, (1, 0): 3, (1, 1): 6},  # rank 1
        {(10, -3): 6, (99, 7): 10, (10, 7): 4},  # non-contiguous keys
        {(0, 0): 0},
    ]
    rng = random.Random(20)
    cases += [_random_sparse_matrix(rng) for _ in range(600)]
    for entries in cases:
        assert snf_diagonal(entries) == smith_by_minors(entries), entries
    assert [snf_diagonal(e) for e in cases[:5]] == [
        (1, 6), (2, 12), (1,), (2, 30), ()]


def _unimodular(size, rng):
    """A seeded unimodular matrix and its inverse, built by row additions."""
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    v = [row[:] for row in u]
    for _ in range(4 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]  # u <- E u
        for row in v:  # v <- v E^-1
            row[j] -= c * row[i]
    return u, v


def _cells(dims, matrices):
    """(degree of each cell, boundary columns) of a complex with
    ``dims[k]`` cells in degree k, numbered degree by degree, and the
    dense matrix ``matrices[k]`` of the map from degree k to k - 1."""
    first, degrees = {}, []
    for k in sorted(dims):
        first[k] = len(degrees)
        degrees += [k] * dims[k]
    columns = [{} for _ in degrees]
    for k, m in matrices.items():
        for j in range(dims[k]):
            columns[first[k] + j] = {first[k - 1] + i: row[j]
                                     for i, row in enumerate(m) if row[j]}
    return degrees, columns


def _renumbered(degrees, columns, rng):
    """The same complex with its cells renumbered by a random
    permutation."""
    perm = list(range(len(degrees)))
    rng.shuffle(perm)
    new_degrees, new_columns = [None] * len(perm), [None] * len(perm)
    for c, p in enumerate(perm):
        new_degrees[p] = degrees[c]
        new_columns[p] = {perm[b]: v for b, v in columns[c].items()}
    return new_degrees, new_columns


def test_homology_residue_in_two_degrees(monkeypatch):
    # H1 = Z + Z/2 + Z/4 and H2 = Z/3 from diagonal boundaries, with
    # every degree conjugated by a seeded unimodular change of basis, so
    # unit cancellation leaves a non-unit residue in degrees 2 and 3
    rng = random.Random(5)
    dims = {0: 2, 1: 3, 2: 3, 3: 2}
    diagonal = {2: [[2, 0, 0], [0, 4, 0], [0, 0, 0]],
                3: [[0, 0], [0, 0], [3, 0]]}
    bases = {k: _unimodular(size, rng) for k, size in dims.items()}
    conjugated = {k: _matmul(_matmul(bases[k - 1][0], d), bases[k][1])
                  for k, d in diagonal.items()}
    assert _matmul(conjugated[2], conjugated[3]) == [[0, 0]] * 3
    degrees, columns = _cells(dims, conjugated)
    for k in conjugated:
        assert any(len(col) > 1 for col, d in zip(columns, degrees) if d == k)
    residues = []

    def spy(entries):
        residues.append(entries)
        return snf_diagonal(entries)

    monkeypatch.setattr(linalg, "snf_diagonal", spy)
    hom = complex_homology(degrees, columns)
    assert hom == {0: (2, ()), 1: (1, (2, 4)), 2: (0, (3,)), 3: (1, ())}
    assert len(residues) == 2


def test_homology_of_random_conjugated_diagonal_complexes(monkeypatch):
    # each degree k has p_k cells mapped onto p_k cells of degree k - 1
    # by entries in {1, 2, 3, 4, 6}, plus free cells; conjugating every
    # degree by a unimodular change of basis hides the pairs, so the
    # cancellation order is exercised on known homology:
    # betti_k = free cells, torsion of H_(k-1) = the non-unit invariant
    # factors of the diagonal of degree k.  The homology does not depend
    # on how the cells are numbered, so each complex is also reduced
    # with its cells permuted at random.
    rng = random.Random(7)
    shuffle = random.Random(8)
    residues = []

    def spy(entries):
        residues.append(entries)
        return snf_diagonal(entries)

    monkeypatch.setattr(linalg, "snf_diagonal", spy)
    cancelled = with_residue = 0
    for _ in range(200):
        top = rng.randint(0, 3)
        pairs = {k: rng.randint(0, 3) if 0 < k <= top else 0
                 for k in range(top + 2)}
        free = {k: rng.randint(0, 2) for k in range(top + 1)}
        dims = {k: pairs[k] + pairs[k + 1] + free[k] for k in range(top + 1)}
        diagonal = {k: [rng.choice((1, 2, 3, 4, 6)) for _ in range(pairs[k])]
                    for k in range(1, top + 1)}
        bases = {k: _unimodular(size, rng) if size > 1
                 else ([[1]] * size, [[1]] * size) for k, size in dims.items()}
        matrices = {}
        for k, diag in diagonal.items():
            # column j < p_k of degree k goes to row p_(k-1) + j of degree k - 1
            d = [[0] * dims[k] for _ in range(dims[k - 1])]
            for j, e in enumerate(diag):
                d[pairs[k - 1] + j][j] = e
            matrices[k] = _matmul(_matmul(bases[k - 1][0], d), bases[k][1])
        want = {}  # a degree with no cells has no entry
        for k in (k for k in dims if dims[k]):
            diag = diagonal.get(k + 1, [])
            factors = smith_by_minors({(j, j): e for j, e in enumerate(diag)})
            want[k] = (free[k], tuple(x for x in factors if x > 1))
        degrees, columns = _cells(dims, matrices)
        permuted = _renumbered(degrees, columns, shuffle)
        assert complex_homology(*permuted) == want, (dims, diagonal)
        before = len(residues)
        assert complex_homology(degrees, columns) == want, (dims, diagonal)
        if len(residues) > before:
            with_residue += 1
        else:
            cancelled += 1
    assert with_residue and cancelled


def _simplicial_cells(simplices_by_dim):
    """(degree of each cell, boundary columns) for explicit simplex
    lists, the simplices numbered in order of dimension."""
    cells = [s for d in sorted(simplices_by_dim) for s in simplices_by_dim[d]]
    number = {s: c for c, s in enumerate(cells)}
    columns = [{number[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1
                for i in range(len(s))} if len(s) > 1 else {} for s in cells]
    return [len(s) - 1 for s in cells], columns


def test_homology_of_circle():
    cells = {
        0: [(0,), (1,), (2,)],
        1: [(0, 1), (1, 2), (0, 2)],
    }
    hom = complex_homology(*_simplicial_cells(cells))
    assert hom[0] == (1, ())
    assert hom[1] == (1, ())


def test_homology_of_two_sphere():
    verts = [(i,) for i in range(4)]
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    tris = [
        (a, b, c)
        for a in range(4)
        for b in range(a + 1, 4)
        for c in range(b + 1, 4)
    ]
    hom = complex_homology(*_simplicial_cells({0: verts, 1: edges, 2: tris}))
    assert hom[0] == (1, ())
    assert hom[1] == (0, ())
    assert hom[2] == (1, ())


def test_homology_of_solid_simplex_is_trivial():
    cells = {}
    import itertools

    for d in range(4):
        cells[d] = list(itertools.combinations(range(4), d + 1))
    hom = complex_homology(*_simplicial_cells(cells))
    assert hom[0] == (1, ())
    for d in range(1, 4):
        assert hom[d] == (0, ())


def test_homology_torsion_projective_plane():
    # minimal cell structure: one cell per dimension, degree-two attachment
    hom = complex_homology([0, 1, 2], [{}, {}, {1: 2}])
    assert hom[0] == (1, ())
    assert hom[1] == (0, (2,))
    assert hom[2] == (0, ())


def test_homology_negative_degrees():
    # augmented complex of two points: one reduced class in degree zero
    hom = complex_homology([-1, 0, 0], [{}, {0: 1}, {0: 1}])
    assert hom[-1] == (0, ())
    assert hom[0] == (1, ())


def test_homology_empty_complex():
    assert complex_homology([-1], [{}]) == {-1: (1, ())}
    assert complex_homology([], []) == {}


def test_homology_matches_snf_route():
    """Unit-pair elimination must agree with plain Smith reduction."""
    # chain complex of the circle again, but checked degree by degree
    cells = {
        0: [(0,), (1,), (2,), (3,)],
        1: [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    }
    degrees, columns = _simplicial_cells(cells)
    entries = {(i, j): v for j, col in enumerate(columns)
               for i, v in col.items()}
    diag = snf_diagonal(entries)
    hom = complex_homology(degrees, columns)
    assert hom[0][0] == degrees.count(0) - len(diag)
    assert hom[1][0] == degrees.count(1) - len(diag)
    assert all(d == 1 for d in diag)
