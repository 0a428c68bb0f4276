"""Structure-constant algebras, coalgebras, bialgebras and Hopf algebras.

Conventions, fixed once for the whole package:

* ``mul[i][j]`` is the list of ``(k, c)`` pairs with
  e_i * e_j = sum c e_k
* ``comul[i]`` is the list of ``(j, k, c)`` triples with
  Delta(e_i) = sum c e_j (x) e_k
* both lists hold nonzero coefficients only, sorted by index, so equal
  tensors are equal lists; this is the only stored form (the JSON
  ``[i, j, k, "c"]`` entries, grouped by their leading indices)
* checks read a basis product e_i * e_j or a coproduct Delta(e_i) off
  these lists and never recompute it by multiplying unit vectors: the
  axioms, the algebra-map checks (``_multiplicative_failure``), the
  Gram matrix phi(e_i e_j) of a functional, through which the Frobenius
  checks evaluate phi on products, the left and right multiplication
  matrices, and the sparse rows of the convolution-inverse and
  separability systems
* antipode matrix acts on coordinate columns: S(e_j) = sum_i S[i][j] e_i
* an element of A (x) A is a dict {(i, j): c} meaning sum c e_i (x) e_j,
  and an element of A (x) A (x) A a dict {(i, j, k): c}; only nonzero
  coefficients are stored, so equal tensors are equal dicts

The dual is a pure permutation of the entries' indices, so H <-> H*
round-trips are bit-exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from .fields import Field, check_same_field
from .linalg import Matrix, solve_linear, sparse_solve, unit_vec, vec_add, \
    zero_vec

LEVELS = ("algebra", "augmented-algebra", "bialgebra", "hopf")

# Largest dimension accepted from a spec, a preset or a double: that of
# D(Taft_4), the top of the benchmark ladder.
MAX_DIM = 256


def format_combination(field: Field, coords, labels) -> str:
    """Render a coordinate vector as a linear combination of labels."""
    terms = []
    for c, name in zip(coords, labels):
        if field.is_zero(c):
            continue
        if c == field.one:
            terms.append(name)
        else:
            terms.append(f"{field.format(c)}*{name}")
    return " + ".join(terms) if terms else "0"


class StructureError(ValueError):
    pass


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self):
        tag = "ok" if self.passed else "FAIL"
        msg = f"[{tag}] {self.name}"
        if self.detail:
            msg += f": {self.detail}"
        return msg


@dataclass
class CheckResult:
    checks: list = dc_field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, passed, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


class Element:
    """Algebra element as a coordinate vector in the chosen basis."""

    def __init__(self, algebra: "HopfData", coords):
        if len(coords) != algebra.dim:
            raise StructureError("coordinate length != dim")
        self.algebra = algebra
        self.coords = list(coords)

    def __mul__(self, other):
        if isinstance(other, Element):
            return Element(self.algebra,
                           self.algebra.mul_vec(self.coords, other.coords))
        return NotImplemented

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        f = self.algebra.field
        return Element(self.algebra, [f.mul(scalar, c) for c in self.coords])

    def __add__(self, other):
        return Element(self.algebra,
                       vec_add(self.algebra.field, self.coords, other.coords))

    def __sub__(self, other):
        f = self.algebra.field
        return Element(self.algebra,
                       [f.sub(a, b) for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        f = self.algebra.field
        return Element(self.algebra, [f.neg(c) for c in self.coords])

    def __eq__(self, other):
        return (isinstance(other, Element) and self.coords == other.coords
                and self.algebra.field == other.algebra.field)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def inverse(self) -> "Element | None":
        """Two-sided inverse, or None.  xy = 1 forces yx = 1 and both are
        verified anyway."""
        A = self.algebra
        L = A.left_mul_matrix(self.coords)
        x = solve_linear(L, A.unit)
        if x is None:
            return None
        if A.mul_vec(x, self.coords) != A.unit:
            return None
        return Element(A, x)

    def order(self, bound: int) -> int | None:
        """Smallest n <= bound with self^n = 1, or None."""
        A = self.algebra
        p = A.unit
        for n in range(1, bound + 1):
            p = A.mul_vec(p, self.coords)
            if p == A.unit:
                return n
        return None

    def __repr__(self):
        A = self.algebra
        return format_combination(A.field, self.coords, A.basis)


class Functional:
    """Linear functional as a coordinate vector in the dual basis."""

    def __init__(self, algebra: "HopfData", coords):
        if len(coords) != algebra.dim:
            raise StructureError("coordinate length != dim")
        self.algebra = algebra
        self.coords = list(coords)

    def __call__(self, x):
        coords = x.coords if isinstance(x, Element) else x
        f = self.algebra.field
        s = f.zero
        for a, b in zip(self.coords, coords):
            if a and b:
                s = f.add(s, f.mul(a, b))
        return s

    def __mul__(self, other):
        """Convolution product (fg)(x) = sum f(x_1) g(x_2)."""
        if not isinstance(other, Functional):
            return NotImplemented
        A = self.algebra
        if A.comul is None:
            raise StructureError("convolution needs comultiplication")
        f = A.field
        out = zero_vec(f, A.dim)
        for i in range(A.dim):
            s = f.zero
            for j, k, c in A.comul[i]:
                a = self.coords[j]
                b = other.coords[k]
                if a and b:
                    s = f.add(s, f.mul(c, f.mul(a, b)))
            out[i] = s
        return Functional(A, out)

    def __add__(self, other):
        return Functional(self.algebra,
                          vec_add(self.algebra.field, self.coords, other.coords))

    def scale(self, scalar):
        f = self.algebra.field
        return Functional(self.algebra, [f.mul(scalar, c) for c in self.coords])

    def __eq__(self, other):
        return isinstance(other, Functional) and self.coords == other.coords

    def compose_matrix(self, M: Matrix) -> "Functional":
        """The functional x -> self(M x)."""
        return Functional(self.algebra, M.transpose().matvec(self.coords))

    def convolution_order(self, bound: int) -> int | None:
        """Order under convolution, unit being the counit."""
        A = self.algebra
        eps = list(A.counit)
        p = Functional(A, eps)
        for n in range(1, bound + 1):
            p = p * self
            if p.coords == eps:
                return n
        return None

    def __repr__(self):
        A = self.algebra
        labels = [f"{name}^" for name in A.basis]
        return format_combination(A.field, self.coords, labels)


class HopfData:
    """Finite-dimensional algebra with optional coalgebra/Hopf data."""

    def __init__(self, field: Field, dim: int, basis, unit, mul,
                 comul=None, counit=None, antipode: Matrix | None = None,
                 level: str = "algebra", name: str = ""):
        if level not in LEVELS:
            raise StructureError(f"unknown structure level {level!r}")
        self.field = field
        self.dim = dim
        self.basis = list(basis) if basis else [f"e{i}" for i in range(dim)]
        self.unit = list(unit)
        self.mul = mul
        self.comul = comul
        self.counit = list(counit) if counit is not None else None
        self.antipode = antipode
        self.level = level
        self.name = name
        self._antipode_inv: Matrix | None = None
        if len(self.unit) != dim or len(self.basis) != dim:
            raise StructureError("unit/basis length != dim")
        if level in ("augmented-algebra", "bialgebra", "hopf") and self.counit is None:
            raise StructureError(f"level {level} needs a counit")
        if level in ("bialgebra", "hopf") and self.comul is None:
            raise StructureError(f"level {level} needs a comultiplication")
        if level == "hopf" and self.antipode is None:
            raise StructureError("level hopf needs an antipode")

    # -- basic access -------------------------------------------------

    def element(self, coords) -> Element:
        return Element(self, coords)

    def functional(self, coords) -> Functional:
        return Functional(self, coords)

    def basis_element(self, i: int) -> Element:
        return Element(self, unit_vec(self.field, self.dim, i))

    def one(self) -> Element:
        return Element(self, self.unit)

    def eps(self) -> Functional:
        if self.counit is None:
            raise StructureError("no counit")
        return Functional(self, self.counit)

    def comul2_sparse(self, i: int) -> dict:
        """(Delta (x) Id)Delta(e_i) as a tensor {(p, q, r): c}."""
        f = self.field
        return _sparse_sum(f, (((p, q, r), f.mul(c, c2))
                               for j, r, c in self.comul[i]
                               for p, q, c2 in self.comul[j]))

    # -- algebra operations -------------------------------------------

    def mul_vec(self, a, b):
        f = self.field
        out = zero_vec(f, self.dim)
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.mul[i]
            for j, bj in enumerate(b):
                if not bj:
                    continue
                cij = f.mul(ai, bj)
                for k, c in row[j]:
                    out[k] = f.add(out[k], f.mul(cij, c))
        return out

    def left_mul_matrix(self, a) -> Matrix:
        """Matrix of x -> a x, read off the table: entry (k, j) is
        sum_i a_i c_ij^k."""
        return self._mul_matrix(a, lambda i, j: self.mul[i][j])

    def right_mul_matrix(self, a) -> Matrix:
        """Matrix of x -> x a, read off the table: entry (k, j) is
        sum_i a_i c_ji^k."""
        return self._mul_matrix(a, lambda i, j: self.mul[j][i])

    def _mul_matrix(self, a, products) -> Matrix:
        """Matrix with column j = sum_i a_i products(i, j), where
        products(i, j) is a stored (k, c) list."""
        f = self.field
        rows = [[f.zero] * self.dim for _ in range(self.dim)]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(self.dim):
                for k, c in products(i, j):
                    rows[k][j] = f.add(rows[k][j], f.mul(ai, c))
        return Matrix(f, rows)

    # -- coalgebra operations -----------------------------------------

    def comul_of(self, a) -> dict:
        """Delta(a) as a tensor {(j, k): c}."""
        f = self.field
        return _sparse_sum(f, (((j, k), f.mul(ai, c))
                               for i, ai in enumerate(a) if ai
                               for j, k, c in self.comul[i]))

    def counit_of(self, a):
        if self.counit is None:
            raise StructureError("no counit")
        f = self.field
        s = f.zero
        for e, c in zip(self.counit, a):
            if e and c:
                s = f.add(s, f.mul(e, c))
        return s

    # -- antipode ------------------------------------------------------

    def antipode_matrix(self) -> Matrix:
        if self.antipode is None:
            raise StructureError("no antipode")
        return self.antipode

    def antipode_inv_matrix(self) -> Matrix:
        if self._antipode_inv is None:
            inv = self.antipode_matrix().inverse()
            if inv is None:
                raise StructureError("antipode matrix is singular")
            self._antipode_inv = inv
        return self._antipode_inv

    def apply_antipode(self, x: Element, power: int = 1) -> Element:
        M = self.antipode_matrix() if power >= 0 else self.antipode_inv_matrix()
        coords = x.coords
        for _ in range(abs(power)):
            coords = M.matvec(coords)
        return Element(self, coords)

    def is_group_like(self, x: Element) -> bool:
        f = self.field
        return (self.comul_of(x.coords) == _outer(f, x.coords, x.coords)
                and self.counit_of(x.coords) == f.one)

    def copy_with(self, **kw) -> "HopfData":
        args = dict(field=self.field, dim=self.dim, basis=self.basis,
                    unit=self.unit, mul=self.mul, comul=self.comul,
                    counit=self.counit, antipode=self.antipode,
                    level=self.level, name=self.name)
        args.update(kw)
        return HopfData(**args)

    def __repr__(self):
        nm = self.name or "?"
        return f"HopfData({nm}, dim={self.dim}, level={self.level}, {self.field!r})"


# -- harpoon actions ---------------------------------------------------

def act(g: Functional, a: Element, side: str) -> Element:
    """Harpoon actions: left is g -> a = sum a_1 g(a_2); right is
    a <- g = sum g(a_1) a_2."""
    A = a.algebra
    f = A.field
    out = zero_vec(f, A.dim)
    for i, ai in enumerate(a.coords):
        if not ai:
            continue
        for j, k, c in A.comul[i]:
            if side == "left":
                gv = g.coords[k]
                tgt = j
            elif side == "right":
                gv = g.coords[j]
                tgt = k
            else:
                raise ValueError("side must be 'left' or 'right'")
            if gv:
                out[tgt] = f.add(out[tgt], f.mul(ai, f.mul(c, gv)))
    return Element(A, out)


def hit_left(g: Functional, a: Element) -> Element:
    return act(g, a, "left")


def hit_right(a: Element, g: Functional) -> Element:
    return act(g, a, "right")


# -- tensors ----------------------------------------------------------

def tensor_square_mul(A: "HopfData", u: dict, v: dict) -> dict:
    """Product in A (x) A of two tensors {(i, j): c}."""
    f = A.field
    return _sparse_sum(f, (((k, k2), f.mul(f.mul(cu, cv), f.mul(c1, c2)))
                           for (i, i2), cu in u.items()
                           for (j, j2), cv in v.items()
                           for k, c1 in A.mul[i][j]
                           for k2, c2 in A.mul[i2][j2]))


def tensor_vec(field: Field, u, v):
    """Coordinates of u (x) v in the tensor-product algebra, whose basis
    pairs (i, j) in row-major order."""
    return [field.mul(a, b) for a in u for b in v]


def _sparse_sum(f: Field, terms) -> dict:
    """Sum (key, value) terms into {key: total}, dropping zero totals."""
    acc: dict = {}
    for key, v in terms:
        acc[key] = f.add(acc[key], v) if key in acc else v
    return {key: v for key, v in acc.items() if v}


def _outer(f: Field, *vecs) -> dict:
    """The pure tensor vecs[0] (x) vecs[1] (x) ... of coordinate vectors,
    as {(i, j, ...): c}."""
    out = {(): f.one}
    for v in vecs:
        nonzero = [(i, c) for i, c in enumerate(v) if c]
        out = {key + (i,): f.mul(a, c) for key, a in out.items()
               for i, c in nonzero}
    return out


def _outer_sum(f: Field, legs) -> dict:
    """Sum of the pure tensors _outer(f, *vecs) over the tuples vecs in
    legs."""
    return _sparse_sum(f, (term for vecs in legs
                           for term in _outer(f, *vecs).items()))


def _tensor_mismatch(A: "HopfData", lhs: dict, rhs: dict) -> str:
    """Empty when lhs == rhs; otherwise the smallest slot where the two
    tensors differ, as 'tensor slot a (x) b: lhs != rhs'."""
    if lhs == rhs:
        return ""
    f = A.field
    slot = min(key for key in lhs.keys() | rhs.keys()
               if lhs.get(key, f.zero) != rhs.get(key, f.zero))
    return (f"tensor slot {' (x) '.join(A.basis[i] for i in slot)}: "
            f"{f.format(lhs.get(slot, f.zero))} != "
            f"{f.format(rhs.get(slot, f.zero))}")


# -- sparse structure constants ----------------------------------------

def _mul_from_entries(f: Field, dim: int, terms):
    """Stored ``mul`` from ((i, j, k), c) terms: mul[i][j] = [(k, c)]."""
    mul = [[[] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in sorted(_sparse_sum(f, terms).items()):
        mul[i][j].append((k, c))
    return mul


def _comul_from_entries(f: Field, dim: int, terms):
    """Stored ``comul`` from ((i, j, k), c) terms: comul[i] = [(j, k, c)]."""
    comul = [[] for _ in range(dim)]
    for (i, j, k), c in sorted(_sparse_sum(f, terms).items()):
        comul[i].append((j, k, c))
    return comul


# -- axiom verification ------------------------------------------------

def _product(A: "HopfData", a, b) -> dict:
    """Product of two elements given as [(index, coefficient)] lists,
    read off A's table, as {k: c}."""
    f = A.field
    return _sparse_sum(f, ((k, f.mul(f.mul(x, y), c))
                           for i, x in a for j, y in b
                           for k, c in A.mul[i][j]))


def _evaluate(f: Field, phi, terms):
    """phi(sum c e_k) for a functional's coordinates phi and the
    (k, c) terms of an element, e.g. a row of the table."""
    return functools.reduce(f.add, (f.mul(c, phi[k]) for k, c in terms),
                            f.zero)


def _multiplicative_failure(A: "HopfData", B: "HopfData", images,
                            anti: bool = False):
    """First (i, j) in index order with theta(e_i e_j) !=
    theta(e_i) theta(e_j) (theta(e_j) theta(e_i) when anti) for the
    linear map theta: A -> B with theta(e_k) = images[k], or None."""
    f = B.field
    imgs = [[(k, c) for k, c in enumerate(v) if c] for v in images]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = _sparse_sum(f, ((m, f.mul(c, a)) for k, c in A.mul[i][j]
                                  for m, a in imgs[k]))
            rhs = (_product(B, imgs[j], imgs[i]) if anti
                   else _product(B, imgs[i], imgs[j]))
            if lhs != rhs:
                return i, j
    return None


def verify_axioms(H: HopfData) -> CheckResult:
    """Per-axiom pass/fail at H's declared level.  Each axiom is an
    identity on basis elements, which suffices by multilinearity, and is
    evaluated on the stored entries of mul and comul."""
    f = H.field
    n = H.dim
    mul, comul, eps = H.mul, H.comul, H.counit
    res = CheckResult()

    def first(name, witnesses) -> None:
        """The first witness fails the check; none passes it."""
        wit = next(witnesses, "")
        res.add(name, not wit, wit)

    e = [[(i, f.one)] for i in range(n)]
    first("associativity", (
        f"(e{i}*e{j})*e{l} != e{i}*(e{j}*e{l})"
        for i in range(n) for j in range(n) for l in range(n)
        if _product(H, mul[i][j], e[l]) != _product(H, e[i], mul[j][l])))

    one = [(k, u) for k, u in enumerate(H.unit) if u]
    first("unit", (f"unit fails on e{i}" for i in range(n)
                   if _product(H, one, e[i]) != {i: f.one}
                   or _product(H, e[i], one) != {i: f.one}))

    if eps is not None:
        if H.counit_of(H.unit) != f.one:
            res.add("counit-algebra-map", False, "eps(1) != 1")
        else:
            first("counit-algebra-map", (
                f"eps(e{i}*e{j}) != eps(e{i})eps(e{j})"
                for i in range(n) for j in range(n)
                if _evaluate(f, eps, mul[i][j]) != f.mul(eps[i], eps[j])))

    if comul is not None:
        first("coassociativity", (
            f"coassociativity fails on e{i}" for i in range(n)
            if H.comul2_sparse(i) != _sparse_sum(
                f, (((p, q, r), f.mul(c, c2)) for p, j, c in comul[i]
                    for q, r, c2 in comul[j]))))

        first("counit-axiom", (
            f"counit axiom fails on e{i}" for i in range(n)
            if _sparse_sum(f, ((k, f.mul(eps[j], c))
                               for j, k, c in comul[i])) != {i: f.one}
            or _sparse_sum(f, ((j, f.mul(c, eps[k]))
                               for j, k, c in comul[i])) != {i: f.one}))

        if H.comul_of(H.unit) != _outer(f, H.unit, H.unit):
            res.add("comul-algebra-map", False, "Delta(1) != 1 (x) 1")
        else:
            first("comul-algebra-map", (
                f"Delta(e{i}*e{j}) != Delta(e{i})Delta(e{j})"
                for i in range(n) for j in range(n)
                if _sparse_sum(f, (((a, b), f.mul(ck, c))
                                   for k, ck in mul[i][j]
                                   for a, b, c in comul[k]))
                != _sparse_sum(f, (
                    ((k, k2), f.mul(f.mul(c, c2), f.mul(m, m2)))
                    for a, b, c in comul[i] for a2, b2, c2 in comul[j]
                    for k, m in mul[a][a2] for k2, m2 in mul[b][b2]))))

    if H.antipode is not None:
        S = H.antipode
        s_cols = [[(l, row[j]) for l, row in enumerate(S.rows) if row[j]]
                  for j in range(n)]

        def eps_one(i) -> dict:
            return _sparse_sum(f, ((k, f.mul(eps[i], u)) for k, u in one))

        first("antipode-left", (
            f"sum S(a_1)a_2 != eps(a)1 at e{i}" for i in range(n)
            if _sparse_sum(f, ((m, f.mul(f.mul(c, s), cm))
                               for j, k, c in comul[i] for l, s in s_cols[j]
                               for m, cm in mul[l][k])) != eps_one(i)))
        first("antipode-right", (
            f"sum a_1 S(a_2) != eps(a)1 at e{i}" for i in range(n)
            if _sparse_sum(f, ((m, f.mul(f.mul(c, s), cm))
                               for j, k, c in comul[i] for l, s in s_cols[k]
                               for m, cm in mul[j][l])) != eps_one(i)))
        invertible = S.inverse() is not None
        res.add("antipode-invertible", invertible,
                "" if invertible else "antipode matrix singular")
    return res


# -- constructions -----------------------------------------------------

def dual_hopf(H: HopfData) -> HopfData:
    """H* by transposition of structure tensors; an exact involution."""
    if H.comul is None or H.counit is None:
        raise StructureError("dual needs comultiplication and counit")
    n = H.dim
    f = H.field
    mul = _mul_from_entries(f, n, (((i, j, k), c) for k in range(n)
                                   for i, j, c in H.comul[k]))
    comul = _comul_from_entries(f, n, (((i, j, k), c) for j in range(n)
                                       for k in range(n)
                                       for i, c in H.mul[j][k]))
    antipode = H.antipode.transpose() if H.antipode is not None else None
    labels = [f"{b}^" for b in H.basis]
    level = H.level if H.level in ("bialgebra", "hopf") else "bialgebra"
    return HopfData(H.field, n, labels, list(H.counit), mul,
                    comul=comul, counit=list(H.unit), antipode=antipode,
                    level=level, name=f"{H.name}*" if H.name else "")


def variant(H: HopfData, which: str) -> HopfData:
    """Opposite / co-opposite / both.  op and cop flip the antipode to
    its inverse; op-cop keeps it."""
    n = H.dim
    mul, comul, antipode = H.mul, H.comul, H.antipode
    if which in ("op", "op-cop"):
        mul = [[H.mul[j][i] for j in range(n)] for i in range(n)]
    if which in ("cop", "op-cop"):
        if H.comul is None:
            raise StructureError("cop needs comultiplication")
        comul = [sorted((k, j, c) for j, k, c in H.comul[i])
                 for i in range(n)]
    if which not in ("op", "cop", "op-cop"):
        raise ValueError("variant must be op, cop or op-cop")
    if antipode is not None and which in ("op", "cop"):
        antipode = H.antipode_inv_matrix()
    return HopfData(H.field, n, H.basis, H.unit, mul, comul=comul,
                    counit=H.counit, antipode=antipode, level=H.level,
                    name=f"{H.name}^{which}" if H.name else "")


def tensor_algebra(A: HopfData, B: HopfData) -> HopfData:
    """Componentwise structure on A (x) B with row-major (A-major)
    index pairing."""
    check_same_field(A.field, B.field)
    f = A.field
    n, m = A.dim, B.dim
    N = n * m
    mul = _mul_from_entries(f, N, (
        ((i * m + i2, j * m + j2, k * m + k2), f.mul(c1, c2))
        for i in range(n) for i2 in range(m)
        for j in range(n) for j2 in range(m)
        for k, c1 in A.mul[i][j] for k2, c2 in B.mul[i2][j2]))
    unit = tensor_vec(f, A.unit, B.unit)
    comul = counit = None
    if A.comul is not None and B.comul is not None:
        comul = _comul_from_entries(f, N, (
            ((i * m + i2, j * m + j2, k * m + k2), f.mul(c1, c2))
            for i in range(n) for i2 in range(m)
            for j, k, c1 in A.comul[i] for j2, k2, c2 in B.comul[i2]))
    if A.counit is not None and B.counit is not None:
        counit = tensor_vec(f, A.counit, B.counit)
    antipode = None
    if A.antipode is not None and B.antipode is not None:
        rows = []
        for i in range(n):
            for i2 in range(m):
                rows.append([f.mul(A.antipode.rows[i][j],
                                   B.antipode.rows[i2][j2])
                             for j in range(n) for j2 in range(m)])
        antipode = Matrix(f, rows)
    level_rank = min(LEVELS.index(A.level), LEVELS.index(B.level))
    labels = [f"{a}(x){b}" for a in A.basis for b in B.basis]
    return HopfData(f, N, labels, unit, mul, comul=comul, counit=counit,
                    antipode=antipode, level=LEVELS[level_rank],
                    name=f"{A.name}(x){B.name}" if A.name and B.name else "")


def convolution_inverse(H: HopfData, F: Matrix) -> Matrix | None:
    """Convolution inverse of a linear map on a bialgebra: solves
    sum G(a_1)F(a_2) = eps(a)1 and checks the two-sided property.
    For F = Id this returns the antipode when one exists."""
    if H.comul is None or H.counit is None:
        raise StructureError("convolution inverse needs a bialgebra")
    f = H.field
    n = H.dim
    Fnz = [[(l, a) for l, a in enumerate(col) if a] for col in F.columns()]
    # unknown G[u][j] is column u n + j; equation (i, r) is the e_r
    # coefficient of sum c G(e_j) F(e_k) over Delta(e_i), with
    # e_u F(e_k) = sum a_l e_u e_l read off the table
    rows = []
    for i in range(n):
        eq = [{} for _ in range(n)]
        for (r, col), v in _sparse_sum(f, (
                ((r, u * n + j), f.mul(f.mul(c, a), m))
                for j, k, c in H.comul[i] for l, a in Fnz[k]
                for u in range(n) for r, m in H.mul[u][l])).items():
            eq[r][col] = v
        for r, e in enumerate(H.unit):
            eq[r][n * n] = f.mul(H.counit[i], e)
        rows.extend(eq)
    sol = sparse_solve(f, rows, n * n)
    if sol is None:
        return None
    G = Matrix(f, [sol[u * n:(u + 1) * n] for u in range(n)])
    # two-sided check: sum F(a_1) G(a_2) = eps(a) 1
    Gnz = [[(m, g) for m, g in enumerate(col) if g] for col in G.columns()]
    for i in range(n):
        got = _sparse_sum(f, ((r, f.mul(c, v)) for j, k, c in H.comul[i]
                              for r, v in _product(H, Fnz[j], Gnz[k]).items()))
        if got != _sparse_sum(f, ((r, f.mul(H.counit[i], e))
                                  for r, e in enumerate(H.unit))):
            return None
    return G
