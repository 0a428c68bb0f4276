"""Exact linear algebra: solve, kernel, rank, inverse, matrix order.

Every elimination runs through one kernel, ``sparse_rref``, on rows
stored as ``{col: value}`` dicts of nonzero entries.  A column index
(the rows holding a nonzero in each column) lets each pivot step visit
only the rows it changes and touch only the nonzero columns of the
pivot row; fill-in and cancellation keep the index current.  Columns
are taken left to right, and the pivot is the candidate row with the
fewest nonzeros (lowest row index on a tie), which limits fill-in.  The
reduced row echelon form and its pivot columns depend only on the row
space, not on the pivot order, so every echelon form, kernel basis and
reported solution is the unique, byte-for-byte reproducible one.
``Matrix.rref`` is the kernel on the matrix's nonzero entries, made
dense again.
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
        red, pivots = sparse_rref(f, _sparse_rows(self.rows), self.ncols)
        rows = [[f.zero] * self.ncols for _ in range(self.nrows)]
        for row, r in zip(rows, red):
            for j, a in r.items():
                row[j] = a
        return Matrix(f, rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Matrix | None":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        f = self.field
        n = self.nrows
        aug = _sparse_rows(self.rows)
        for i, row in enumerate(aug):
            row[n + i] = f.one
        red, pivots = sparse_rref(f, aug, 2 * n)
        if pivots != list(range(n)):
            return None
        return Matrix(f, [[r.get(n + j, f.zero) for j in range(n)]
                          for r in red])

    def is_zero(self) -> bool:
        return not any(a for r in self.rows for a in r)

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"


def sparse_rref(field: Field, rows, ncols: int) -> tuple[list, list]:
    """Reduced row echelon form of the rows ``{col: value}`` (columns in
    ``range(ncols)``): the nonzero rows of the RREF in pivot order, as
    zero-free dicts, and their pivot columns.  The input is not
    modified."""
    mul, sub, zero = field.mul, field.sub, field.zero
    rows = [{j: a for j, a in r.items() if a} for r in rows]
    where = [set() for _ in range(ncols)]   # rows nonzero in each column
    for i, r in enumerate(rows):
        for j in r:
            where[j].add(i)
    used = [False] * len(rows)
    order, pivots = [], []
    for c in range(ncols):
        if len(order) == len(rows):
            break
        cands = [i for i in where[c] if not used[i]]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        inv = field.inv(prow[c])
        for j in prow:
            prow[j] = mul(inv, prow[j])
        rest = [(j, a) for j, a in prow.items() if j != c]
        for i in where[c]:
            if i == p:
                continue
            row = rows[i]
            factor = row.pop(c)
            for j, a in rest:
                v = sub(row.get(j, zero), mul(factor, a))
                if v:
                    if j not in row:
                        where[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    where[j].discard(i)
        where[c] = {p}
        used[p] = True
        order.append(p)
        pivots.append(c)
    return [rows[i] for i in order], pivots


def sparse_solve(field: Field, rows, ncols: int) -> list | None:
    """Echelon-canonical solution (free variables zero) of the system
    whose rows ``{col: value}`` hold the right-hand side in column
    ``ncols``, or None if it is inconsistent."""
    red, pivots = sparse_rref(field, rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for row, c in zip(red, pivots):
        x[c] = row.get(ncols, field.zero)
    return x


def _sparse_rows(rows) -> list[dict]:
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def solve_linear(A: Matrix, b: list) -> list | None:
    """Echelon-canonical solution of A x = b (free variables zero), or None."""
    if len(b) != A.nrows:
        raise ValueError("right-hand side length mismatch")
    return sparse_solve(A.field, _sparse_rows(
        row + [bv] for row, bv in zip(A.rows, b)), A.ncols)


def kernel_basis(A: Matrix) -> list[list]:
    """Reduced-echelon kernel basis, ordered by free (pivotless) column."""
    f = A.field
    red, pivots = sparse_rref(f, _sparse_rows(A.rows), A.ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(A.ncols):
        if fc in pivot_set:
            continue
        v = [f.zero] * A.ncols
        v[fc] = f.one
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = f.neg(row[fc])
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
