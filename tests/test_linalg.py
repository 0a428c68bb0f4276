"""Exact linear algebra: solve, kernel, rank, inverse, matrix order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhalg import GF, QQ, Matrix, kernel_basis, matrix_order, solve_linear

FIELDS = [QQ, GF(5), GF(13)]


def _matrices(field, max_n=4):
    entries = st.integers(min_value=-6, max_value=6)

    def build(shape_and_vals):
        (nr, nc), vals = shape_and_vals
        it = iter(vals)
        return Matrix(field, [[field.from_int(next(it)) for _ in range(nc)]
                              for _ in range(nr)])

    shapes = st.tuples(st.integers(1, max_n), st.integers(1, max_n))
    return shapes.flatmap(
        lambda s: st.tuples(st.just(s),
                            st.lists(entries, min_size=s[0] * s[1],
                                     max_size=s[0] * s[1]))).map(build)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
class TestSolveAndKernel:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_solution_resubstitutes(self, field, data):
        M = data.draw(_matrices(field))
        x = [field.from_int(data.draw(st.integers(-4, 4)))
             for _ in range(M.ncols)]
        b = M.matvec(x)
        sol = solve_linear(M, b)
        assert sol is not None
        assert M.matvec(sol) == b

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_dimension_and_membership(self, field, data):
        M = data.draw(_matrices(field))
        ker = kernel_basis(M)
        assert len(ker) == M.ncols - M.rank()
        zero = [field.zero] * M.nrows
        for v in ker:
            assert M.matvec(v) == zero

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_inconsistent_system_reports_none(self, field, data):
        M = data.draw(_matrices(field))
        b = [field.from_int(data.draw(st.integers(-4, 4)))
             for _ in range(M.nrows)]
        sol = solve_linear(M, b)
        if sol is None:
            # b must lie outside the column span: appending it raises rank
            aug = Matrix(field, [row + [bv]
                                 for row, bv in zip(M.rows, b)])
            assert aug.rank() == M.rank() + 1
        else:
            assert M.matvec(sol) == b


def _adjugate_inverse(M):
    """Inverse via cofactors, an independent oracle for n <= 3."""
    f = M.field
    n = M.nrows
    if n == 1:
        det = M.rows[0][0]
    elif n == 2:
        a, b = M.rows[0]
        c, d = M.rows[1]
        det = f.sub(f.mul(a, d), f.mul(b, c))
    else:
        det = f.zero
        for j in range(3):
            minor = [[M.rows[r][c] for c in range(3) if c != j]
                     for r in (1, 2)]
            m_det = f.sub(f.mul(minor[0][0], minor[1][1]),
                          f.mul(minor[0][1], minor[1][0]))
            term = f.mul(M.rows[0][j], m_det)
            det = f.add(det, term) if j % 2 == 0 else f.sub(det, term)
    if f.is_zero(det):
        return None
    inv_det = f.inv(det)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[M.rows[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            if n == 1:
                cof = f.one
            elif n == 2:
                cof = minor[0][0]
            else:
                cof = f.sub(f.mul(minor[0][0], minor[1][1]),
                            f.mul(minor[0][1], minor[1][0]))
            if (i + j) % 2 == 1:
                cof = f.neg(cof)
            row.append(f.mul(inv_det, cof))
        out.append(row)
    return Matrix(f, out)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_inverse_matches_cofactor_formula(field, data):
    n = data.draw(st.integers(1, 3))
    M = Matrix(field, [[field.from_int(data.draw(st.integers(-5, 5)))
                        for _ in range(n)] for _ in range(n)])
    inv = M.inverse()
    oracle = _adjugate_inverse(M)
    assert inv == oracle
    if inv is not None:
        assert M * inv == Matrix.identity(field, n)
        assert inv * M == Matrix.identity(field, n)


def test_rref_is_idempotent_and_deterministic():
    M = Matrix(QQ, [[Fraction(2), Fraction(4), Fraction(1)],
                    [Fraction(1), Fraction(2), Fraction(0)],
                    [Fraction(3), Fraction(6), Fraction(2)]])
    R1, piv1 = M.rref()
    R2, piv2 = R1.rref()
    assert R1 == R2 and piv1 == piv2
    # pivots are the leftmost independent columns
    assert piv1 == [0, 2]


def test_solve_prefers_zero_free_variables():
    M = Matrix(QQ, [[Fraction(1), Fraction(1)]])
    sol = solve_linear(M, [Fraction(3)])
    assert sol == [Fraction(3), Fraction(0)]


def test_matrix_order():
    ident = Matrix.identity(QQ, 3)
    assert matrix_order(ident, 5) == 1
    perm = Matrix(QQ, [[Fraction(0), Fraction(1), Fraction(0)],
                       [Fraction(0), Fraction(0), Fraction(1)],
                       [Fraction(1), Fraction(0), Fraction(0)]])
    assert matrix_order(perm, 5) == 3
    assert matrix_order(perm.scale(Fraction(2)), 10) is None


# -- sparse elimination against a full-row reference ---------------------

SPARSE_FIELDS = [QQ, GF(2), GF(7), GF(13)]


def _reference_rref(M):
    """Textbook Gauss-Jordan on dense rows, pivoting on the first nonzero
    row of the leftmost column and rewriting every entry of every row.
    The kernel pivots on the sparsest row; the RREF is the same."""
    f = M.field
    m = [list(r) for r in M.rows]
    pivots, piv_r = [], 0
    for c in range(M.ncols):
        sel = next((r for r in range(piv_r, M.nrows)
                    if not f.is_zero(m[r][c])), None)
        if sel is None:
            continue
        m[piv_r], m[sel] = m[sel], m[piv_r]
        inv = f.inv(m[piv_r][c])
        m[piv_r] = [f.mul(inv, a) for a in m[piv_r]]
        for r in range(M.nrows):
            if r != piv_r:
                factor = m[r][c]
                m[r] = [f.sub(a, f.mul(factor, b))
                        for a, b in zip(m[r], m[piv_r])]
        pivots.append(c)
        piv_r += 1
        if piv_r == M.nrows:
            break
    return Matrix(f, m), pivots


def _sparse_matrix(field, data, nr, nc):
    """An nr x nc matrix with at most 2 (nr + nc) nonzero entries."""
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
        st.integers(-4, 4), max_size=2 * (nr + nc)))
    return Matrix(field, [[field.from_int(cells.get((i, j), 0))
                           for j in range(nc)] for i in range(nr)])


def _shaped_sparse_matrix(field, data, shape):
    small, big = data.draw(st.integers(1, 5)), data.draw(st.integers(6, 12))
    if shape == "wide":
        return _sparse_matrix(field, data, small, big)
    if shape == "tall":
        return _sparse_matrix(field, data, big, small)
    if shape == "dense-first":
        # row 0 is the first candidate in column 0 and the densest row; a
        # sparser row below it also holds column 0, so the sparsest-row
        # pivot is not the first-nonzero-row pivot of the reference
        nr, nc = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 8))
        M = _sparse_matrix(field, data, nr, nc)
        nonzero = st.integers(1, 4).map(field.from_int).filter(bool)
        M.rows[0] = [data.draw(nonzero) for _ in range(nc)]
        row = data.draw(st.integers(1, nr - 1))
        M.rows[row][0] = field.one
        M.rows[row][data.draw(st.integers(1, nc - 1))] = field.zero
        return M
    # rank at most k < min(nr, nc): a product through a k-dimensional space
    nr, nc = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9))
    k = data.draw(st.integers(0, min(nr, nc) - 1))
    if k == 0:
        return Matrix.zeros(field, nr, nc)
    return (_sparse_matrix(field, data, nr, k)
            * _sparse_matrix(field, data, k, nc))


@pytest.mark.parametrize("shape", ["wide", "tall", "rank-deficient",
                                   "dense-first"])
@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_rref_matches_full_row_elimination(field, shape, data):
    M = _shaped_sparse_matrix(field, data, shape)
    before = [list(r) for r in M.rows]
    R, pivots = M.rref()
    assert M.rows == before     # elimination works on a copy
    ref, ref_pivots = _reference_rref(M)
    assert R == ref
    assert pivots == ref_pivots
    if shape == "rank-deficient":
        assert len(pivots) < min(M.nrows, M.ncols)
    if field.kind == "Fp":
        assert all(isinstance(a, int) and a in range(field.p)
                   for row in R.rows for a in row)
