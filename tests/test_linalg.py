"""Exact linear algebra: row reduction, feasibility, and integral homology."""

from __future__ import annotations

from fractions import Fraction

from magarr.linalg import (
    clear_denominators,
    complex_homology,
    in_row_space,
    matrix_rank,
    nullspace,
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
    assert in_row_space(reduced, pivots, [3, 2, 5])
    assert not in_row_space(reduced, pivots, [3, 2, 4])


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


def _simplicial_boundaries(simplices_by_dim):
    """Column-map boundaries for explicit simplex lists."""
    index = {
        d: {s: i for i, s in enumerate(faces)}
        for d, faces in simplices_by_dim.items()
    }
    boundaries = {}
    for d, faces in simplices_by_dim.items():
        if d - 1 not in simplices_by_dim:
            continue
        cols = {}
        for j, s in enumerate(faces):
            col = {}
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                col[index[d - 1][face]] = -1 if i % 2 else 1
            cols[j] = col
        boundaries[d] = cols
    dims = {d: len(v) for d, v in simplices_by_dim.items()}
    return dims, boundaries


def test_homology_of_circle():
    cells = {
        0: [(0,), (1,), (2,)],
        1: [(0, 1), (1, 2), (0, 2)],
    }
    dims, boundaries = _simplicial_boundaries(cells)
    hom = complex_homology(dims, boundaries)
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
    dims, boundaries = _simplicial_boundaries({0: verts, 1: edges, 2: tris})
    hom = complex_homology(dims, boundaries)
    assert hom[0] == (1, ())
    assert hom[1] == (0, ())
    assert hom[2] == (1, ())


def test_homology_of_solid_simplex_is_trivial():
    cells = {}
    import itertools

    for d in range(4):
        cells[d] = list(itertools.combinations(range(4), d + 1))
    dims, boundaries = _simplicial_boundaries(cells)
    hom = complex_homology(dims, boundaries)
    assert hom[0] == (1, ())
    for d in range(1, 4):
        assert hom[d] == (0, ())


def test_homology_torsion_projective_plane():
    # minimal cell structure: one cell per dimension, degree-two attachment
    dims = {0: 1, 1: 1, 2: 1}
    boundaries = {2: {0: {0: 2}}}
    hom = complex_homology(dims, boundaries)
    assert hom[0] == (1, ())
    assert hom[1] == (0, (2,))
    assert hom[2] == (0, ())


def test_homology_negative_degrees():
    # augmented complex of two points: one reduced class in degree zero
    dims = {-1: 1, 0: 2}
    boundaries = {0: {0: {0: 1}, 1: {0: 1}}}
    hom = complex_homology(dims, boundaries)
    assert hom[-1] == (0, ())
    assert hom[0] == (1, ())


def test_homology_empty_complex():
    assert complex_homology({-1: 1}, {}) == {-1: (1, ())}
    assert complex_homology({}, {}) == {}


def test_homology_matches_snf_route():
    """Unit-pair elimination must agree with plain Smith reduction."""
    # chain complex of the circle again, but checked degree by degree
    cells = {
        0: [(0,), (1,), (2,), (3,)],
        1: [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    }
    dims, boundaries = _simplicial_boundaries(cells)
    hom = complex_homology(dims, boundaries)
    entries = {}
    for j, col in boundaries[1].items():
        for i, v in col.items():
            entries[(i, j)] = v
    diag = snf_diagonal(entries)
    assert hom[0][0] == dims[0] - len(diag)
    assert hom[1][0] == dims[1] - len(diag)
    assert all(d == 1 for d in diag)
