"""Dense exact linear algebra: solve, kernel, rank, inverse, matrix order.

Elimination uses deterministic pivoting (leftmost column, first nonzero
row) so every echelon form, kernel basis and reported solution is
byte-for-byte reproducible.  It is sparse-aware without a second code
path: entries are tested by truthiness (a zero ``Fraction`` and the
residue 0 are both false), and each step scales and eliminates only the
nonzero columns of the pivot row, in rows whose pivot-column entry is
nonzero.  The result is the one the full-row elimination gives.
"""

from __future__ import annotations

from .fields import Field, FieldMismatchError, check_same_field


class Matrix:
    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[field.one if i == j else field.zero
                            for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field: Field, cols) -> "Matrix":
        cols = list(cols)
        nrows = len(cols[0]) if cols else 0
        return cls(field, [[cols[j][i] for j in range(len(cols))]
                           for i in range(nrows)])

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in subtraction")
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        f = self.field
        ot = other.transpose().rows
        out = []
        for row in self.rows:
            nonzero = [(k, a) for k, a in enumerate(row) if a]
            out_row = []
            for col in ot:
                s = f.zero
                for k, a in nonzero:
                    b = col[k]
                    if b:
                        s = f.add(s, f.mul(a, b))
                out_row.append(s)
            out.append(out_row)
        return Matrix(f, out)

    def matvec(self, v: list) -> list:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch in matvec")
        f = self.field
        nonzero = [(k, b) for k, b in enumerate(v) if b]
        out = []
        for row in self.rows:
            s = f.zero
            for k, b in nonzero:
                a = row[k]
                if a:
                    s = f.add(s, f.mul(a, b))
            out.append(s)
        return out

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot columns."""
        f = self.field
        mul, sub = f.mul, f.sub
        m = [list(r) for r in self.rows]
        pivots = []
        piv_r = 0
        for c in range(self.ncols):
            if piv_r >= self.nrows:
                break
            sel = next((r for r in range(piv_r, self.nrows) if m[r][c]),
                       None)
            if sel is None:
                continue
            m[piv_r], m[sel] = m[sel], m[piv_r]
            prow = m[piv_r]
            # rows from piv_r down are zero left of c
            cols = [j for j in range(c, self.ncols) if prow[j]]
            inv = f.inv(prow[c])
            for j in cols:
                prow[j] = mul(inv, prow[j])
            for r, row in enumerate(m):
                factor = row[c]
                if factor and r != piv_r:
                    for j in cols:
                        row[j] = sub(row[j], mul(factor, prow[j]))
            pivots.append(c)
            piv_r += 1
        return Matrix(f, m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Matrix | None":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        f = self.field
        n = self.nrows
        ident = Matrix.identity(f, n).rows
        aug = Matrix(f, [row + e for row, e in zip(self.rows, ident)])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            return None
        return Matrix(f, [row[n:] for row in red.rows])

    def is_zero(self) -> bool:
        return not any(a for r in self.rows for a in r)

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"


def solve_linear(A: Matrix, b: list) -> list | None:
    """Echelon-canonical solution of A x = b (free variables zero), or None."""
    if len(b) != A.nrows:
        raise ValueError("right-hand side length mismatch")
    f = A.field
    aug = Matrix(f, [row + [bv] for row, bv in zip(A.rows, b)])
    red, pivots = aug.rref()
    if A.ncols in pivots:
        return None
    x = [f.zero] * A.ncols
    for r, c in enumerate(pivots):
        x[c] = red.rows[r][A.ncols]
    return x


def kernel_basis(A: Matrix) -> list[list]:
    """Reduced-echelon kernel basis, ordered by free (pivotless) column."""
    f = A.field
    red, pivots = A.rref()
    pivot_set = set(pivots)
    free = [c for c in range(A.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [f.zero] * A.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.rows[r][fc])
        basis.append(v)
    return basis


def matrix_order(M: Matrix, bound: int) -> int | None:
    """Smallest n <= bound with M^n = I, or None."""
    if M.nrows != M.ncols:
        raise ValueError("matrix_order needs a square matrix")
    if bound < 1:
        raise ValueError("bound must be positive")
    ident = Matrix.identity(M.field, M.nrows)
    P = ident
    for n in range(1, bound + 1):
        P = P * M
        if P == ident:
            return n
    return None


def vec_add(field: Field, u: list, v: list) -> list:
    return [field.add(a, b) for a, b in zip(u, v)]

def vec_scale(field: Field, c, v: list) -> list:
    return [field.mul(c, a) for a in v]

def zero_vec(field: Field, n: int) -> list:
    return [field.zero] * n

def unit_vec(field: Field, n: int, i: int) -> list:
    v = [field.zero] * n
    v[i] = field.one
    return v
