"""Frobenius systems, dual bases, Nakayama automorphisms, integrals,
norms and modular functions for augmented Frobenius algebras."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import Matrix, kernel_basis, solve_linear, sparse_solve, \
    unit_vec, vec_add, vec_scale, zero_vec
from .structure import Element, Functional, HopfData, StructureError, \
    _evaluate, _multiplicative_failure, _outer, _outer_sum, _sparse_sum, \
    tensor_square_mul, tensor_vec


class DegenerateFunctional(ValueError):
    """The candidate functional has a singular Gram matrix."""


class NormNotFound(ValueError):
    pass


class FrobeniusInternalError(RuntimeError):
    """An identity that must hold for a valid system failed."""


class FrobeniusSystem:
    """A functional phi with paired dual-bases lists (x_i, y_i) such that
    sum_i x_i phi(y_i a) = a = sum_i phi(a x_i) y_i for every a."""

    def __init__(self, algebra: HopfData, phi: Functional,
                 xs: list, ys: list):
        if len(xs) != len(ys):
            raise ValueError("dual-bases lists must have equal length")
        self.algebra = algebra
        self.phi = phi
        self.xs = list(xs)
        self.ys = list(ys)
        self._gram: Matrix | None = None
        self._nakayama: Matrix | None = None
        self.verify_dual_bases()

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, A: HopfData, phi: Functional) -> "FrobeniusSystem":
        """Canonical system with x_i the algebra basis and y_i read off
        the inverse Gram matrix."""
        G = sys_gram(A, phi)
        Ginv = G.inverse()
        if Ginv is None:
            raise DegenerateFunctional(
                "Gram matrix of phi is singular; phi is not a Frobenius "
                "homomorphism")
        # phi(y_i e_k) = delta_ik  <=>  y_i coords = row i of G^{-1}
        return cls(A, phi, [A.basis_element(i) for i in range(A.dim)],
                   [Element(A, list(Ginv.rows[i])) for i in range(A.dim)])

    def _matrices(self) -> tuple[Matrix, Matrix]:
        """The matrices X and Y whose columns are the x_i and the y_i."""
        f = self.algebra.field
        return (Matrix.from_columns(f, [x.coords for x in self.xs]),
                Matrix.from_columns(f, [y.coords for y in self.ys]))

    def verify_dual_bases(self) -> None:
        """sum_i x_i phi(y_i e_k) = e_k = sum_i phi(e_k x_i) y_i for every
        basis element, i.e. X Y^T G = I = Y X^T G^T for the Gram matrix
        G of phi."""
        A = self.algebra
        X, Y = self._matrices()
        G = self.gram
        ident = Matrix.identity(A.field, A.dim).rows
        left = (X * (Y.transpose() * G)).columns()
        right = (Y * (X.transpose() * G.transpose())).columns()
        for k in range(A.dim):
            if left[k] != ident[k] or right[k] != ident[k]:
                raise FrobeniusInternalError(
                    f"dual-bases equations fail on basis element {A.basis[k]}")

    @property
    def gram(self) -> Matrix:
        if self._gram is None:
            self._gram = sys_gram(self.algebra, self.phi)
        return self._gram

    # -- derived objects ----------------------------------------------

    def frobenius_element(self) -> dict:
        """e = sum_i x_i (x) y_i as a tensor {(j, k): c}."""
        return _outer_sum(self.algebra.field,
                          ((x.coords, y.coords)
                           for x, y in zip(self.xs, self.ys)))

    def casimir_ok(self) -> bool:
        """a e = e a for every basis a."""
        A = self.algebra
        f = A.field
        e = self.frobenius_element()
        for i in range(A.dim):
            left = _outer(f, unit_vec(f, A.dim, i), A.unit)
            right = _outer(f, A.unit, unit_vec(f, A.dim, i))
            if tensor_square_mul(A, left, e) != tensor_square_mul(A, e, right):
                return False
        return True

    def center_sum_ok(self) -> bool:
        """sum_i x_i y_i commutes with every basis element."""
        A = self.algebra
        f = A.field
        s = zero_vec(f, A.dim)
        for x, y in zip(self.xs, self.ys):
            s = vec_add(f, s, (x * y).coords)
        for i in range(A.dim):
            e = unit_vec(f, A.dim, i)
            if A.mul_vec(s, e) != A.mul_vec(e, s):
                return False
        return True

    def exchange_ok(self) -> bool:
        """sum x_i a (x) y_i = sum x_i (x) alpha(a) y_i for basis a."""
        A = self.algebra
        f = A.field
        alpha = self.nakayama()
        pairs = list(zip(self.xs, self.ys))
        for i in range(A.dim):
            a = A.basis_element(i)
            aa = Element(A, alpha.matvec(a.coords))
            lhs = _outer_sum(f, (((x * a).coords, y.coords)
                                 for x, y in pairs))
            rhs = _outer_sum(f, ((x.coords, (aa * y).coords)
                                 for x, y in pairs))
            if lhs != rhs:
                return False
        return True

    def nakayama(self) -> Matrix:
        """alpha with phi(alpha(a) b) = phi(b a), via
        alpha(a) = sum_i phi(x_i a) y_i, i.e. alpha = Y X^T G for the
        Gram matrix G and the matrices X, Y with columns x_i, y_i;
        verified to be an algebra automorphism with phi o alpha = phi."""
        if self._nakayama is not None:
            return self._nakayama
        A = self.algebra
        X, Y = self._matrices()
        alpha = Y * (X.transpose() * self.gram)
        if alpha.inverse() is None:
            raise FrobeniusInternalError("Nakayama matrix is singular")
        if alpha.matvec(A.unit) != A.unit:
            raise FrobeniusInternalError("Nakayama does not fix the unit")
        if _multiplicative_failure(A, A, alpha.columns()) is not None:
            raise FrobeniusInternalError("Nakayama is not an algebra map")
        phi_alpha = self.phi.compose_matrix(alpha)
        if phi_alpha.coords != self.phi.coords:
            raise FrobeniusInternalError("phi o alpha != phi")
        self._nakayama = alpha
        return alpha


def sys_gram(A: HopfData, phi: Functional) -> Matrix:
    """G[i][j] = phi(e_i e_j), read off the multiplication table."""
    return Matrix(A.field, [[_evaluate(A.field, phi.coords, A.mul[i][j])
                             for j in range(A.dim)] for i in range(A.dim)])


def build_system(A: HopfData, phi: Functional) -> FrobeniusSystem:
    return FrobeniusSystem.build(A, phi)


def nakayama(sys: FrobeniusSystem) -> Matrix:
    return sys.nakayama()


# -- augmented theory --------------------------------------------------

@dataclass
class AugmentedReport:
    right_integrals: list        # reduced-echelon basis, coordinate vectors
    left_integrals: list
    right_norm: Element          # n with phi n = eps
    left_norm: Element
    modular: Functional          # m = n phi, i.e. m(a) = phi(a n)
    unimodular: bool


def integral_space(A: HopfData, side: str) -> list:
    """Reduced-echelon basis of the right (x a = eps(a) x) or left
    (a x = eps(a) x) integral space."""
    if A.counit is None:
        raise StructureError("integrals need an augmentation")
    f = A.field
    n = A.dim
    rows = []
    for j in range(n):
        ej = unit_vec(f, n, j)
        M = A.right_mul_matrix(ej) if side == "right" else A.left_mul_matrix(ej)
        for k in range(n):
            M.rows[k][k] = f.sub(M.rows[k][k], A.counit[j])
        rows.extend(M.rows)
    return kernel_basis(Matrix(f, rows))


def integrals_and_norms(A: HopfData, sys: FrobeniusSystem) -> AugmentedReport:
    if A.counit is None:
        raise StructureError("integrals need an augmentation")
    f = A.field
    n = A.dim

    right_ints = integral_space(A, "right")
    left_ints = integral_space(A, "left")

    G = sys.gram
    eps = list(A.counit)
    n_coords = solve_linear(G.transpose(), eps)
    if n_coords is None:
        raise NormNotFound("phi n = eps has no solution")
    ln_coords = solve_linear(G, eps)
    if ln_coords is None:
        raise NormNotFound("n' phi = eps has no solution")
    norm = Element(A, n_coords)
    left_norm = Element(A, ln_coords)

    # n must be a right integral, n' a left integral
    for j in range(n):
        ej = A.basis_element(j)
        if (norm * ej).coords != vec_scale(f, A.counit[j], norm.coords):
            raise FrobeniusInternalError("right norm is not a right integral")
        if (ej * left_norm).coords != vec_scale(f, A.counit[j],
                                                left_norm.coords):
            raise FrobeniusInternalError("left norm is not a left integral")

    # m = n phi : a -> phi(a n)
    m_coords = [sys.phi(A.basis_element(j) * norm) for j in range(n)]
    modular = Functional(A, m_coords)

    # norm identities n = sum eps(x_i) y_i = sum x_i m(y_i)
    acc1 = zero_vec(f, n)
    acc2 = zero_vec(f, n)
    for x, y in zip(sys.xs, sys.ys):
        acc1 = vec_add(f, acc1, vec_scale(f, A.counit_of(x.coords), y.coords))
        acc2 = vec_add(f, acc2, vec_scale(f, modular(y), x.coords))
    if acc1 != norm.coords:
        raise FrobeniusInternalError("identity n = sum eps(x_i) y_i fails")
    if acc2 != norm.coords:
        raise FrobeniusInternalError("identity n = sum x_i m(y_i) fails")

    unimodular = _same_span(f, right_ints, left_ints)
    return AugmentedReport(right_ints, left_ints, norm, left_norm, modular,
                           unimodular)


def _same_span(field, vs1: list, vs2: list) -> bool:
    if len(vs1) != len(vs2):
        return False
    if not vs1:
        return True
    r1 = Matrix(field, vs1).rref()[0]
    r2 = Matrix(field, vs2).rref()[0]
    return r1 == r2


# -- derivatives -------------------------------------------------------

@dataclass
class Derivative:
    left: Element    # psi = d phi, i.e. psi(b) = phi(b d)
    right: Element   # psi = phi d', i.e. psi(b) = phi(d' b)


def derivative(sys1: FrobeniusSystem, sys2: FrobeniusSystem) -> Derivative:
    """Derivative of sys2's functional with respect to sys1's."""
    if sys1.algebra is not sys2.algebra:
        raise ValueError("derivative needs systems on the same algebra")
    A = sys1.algebra
    psi = sys2.phi.coords
    d_left = solve_linear(sys1.gram, psi)
    d_right = solve_linear(sys1.gram.transpose(), psi)
    if d_left is None or d_right is None:
        raise FrobeniusInternalError("derivative system inconsistent")
    dl = Element(A, d_left)
    dr = Element(A, d_right)
    if dl.inverse() is None or dr.inverse() is None:
        raise FrobeniusInternalError("derivative is not invertible")
    return Derivative(dl, dr)


# -- separability ------------------------------------------------------

def separability_element(sys: FrobeniusSystem) -> Element | None:
    """Solves sum_i x_i a y_i = 1; a solution exists iff the algebra is
    separable.  With the Frobenius element sum c e_j (x) e_k, column u
    is sum c (e_j e_u) e_k, read off the table."""
    A = sys.algebra
    f = A.field
    n = A.dim
    rows = [{} for _ in range(n)]
    for (r, u), v in _sparse_sum(f, (
            ((r, u), f.mul(f.mul(c, a), b))
            for (j, k), c in sys.frobenius_element().items()
            for u in range(n) for l, a in A.mul[j][u]
            for r, b in A.mul[l][k])).items():
        rows[r][u] = v
    for r, e in enumerate(A.unit):
        rows[r][n] = e
    sol = sparse_solve(f, rows, n)
    return Element(A, sol) if sol is not None else None


# -- symmetry ----------------------------------------------------------

@dataclass
class SymmetryReport:
    symmetric: bool
    trace_rescaling: Element | None       # d with phi d a trace
    inner_witness: Element | None         # d with alpha(a) = d^{-1} a d
    symmetric_element_rescaling: Element | None  # c with sum x_i (x) c y_i symmetric


def _invertible_in_span(A: HopfData, vecs: list) -> Element | None:
    """Deterministic search for an invertible element in the span of the
    given coordinate vectors."""
    if not vecs:
        return None
    f = A.field
    span = Matrix.from_columns(f, vecs)
    # the unit, when in the span, is the canonical witness
    if solve_linear(span, list(A.unit)) is not None:
        return Element(A, list(A.unit))
    candidates = [list(v) for v in vecs]
    acc = zero_vec(f, A.dim)
    for v in vecs:
        acc = vec_add(f, acc, v)
        candidates.append(list(acc))
    for v in candidates:
        el = Element(A, v)
        if el.inverse() is not None:
            return el
    if f.kind == "Fp":
        coeffs = [f.from_int(i) for i in range(min(A.field.p, 8))]
    else:
        coeffs = [f.from_int(i) for i in (0, 1, -1, 2, -2, 3, 5)]
    rng = random.Random(20259)
    for _ in range(6000):
        acc = zero_vec(f, A.dim)
        nonzero = False
        for v in vecs:
            c = rng.choice(coeffs)
            if not f.is_zero(c):
                nonzero = True
                acc = vec_add(f, acc, vec_scale(f, c, v))
        if not nonzero:
            continue
        el = Element(A, acc)
        if el.inverse() is not None:
            return el
    return None


def _check_trace_rescaling(sys: FrobeniusSystem, d: Element) -> bool:
    """phi d (x -> phi(d x)) is a nondegenerate trace: its Gram matrix
    is symmetric and invertible.  phi(d e_j) = sum_k d_k G[k][j] for
    the Gram matrix G of phi."""
    psi = Functional(sys.algebra, sys.gram.transpose().matvec(d.coords))
    G = sys_gram(sys.algebra, psi)
    return G == G.transpose() and G.inverse() is not None


def _check_inner(sys: FrobeniusSystem, d: Element) -> bool:
    A = sys.algebra
    alpha = sys.nakayama()
    for j in range(A.dim):
        ej = A.basis_element(j)
        aj = Element(A, alpha.matvec(ej.coords))
        if (d * aj).coords != (ej * d).coords:
            return False
    return True


def _check_symmetric_element(sys: FrobeniusSystem, c: Element) -> bool:
    t = _outer_sum(sys.algebra.field, ((x.coords, (c * y).coords)
                                       for x, y in zip(sys.xs, sys.ys)))
    return t == {(j, i): v for (i, j), v in t.items()}


def symmetric_test(sys: FrobeniusSystem) -> SymmetryReport:
    """A is symmetric iff its Nakayama automorphism alpha is inner, i.e.
    iff the twisted centre T = {d : d alpha(a) = a d} holds a unit u.
    A unit u in T gives A = uA, inside span(T A); when that span is a
    proper subspace, A is not symmetric.  Otherwise T is searched for a
    unit, and a search that finds none also reports False.  From u,
    alpha(a) = u^{-1} a u, phi u^{-1} is a trace and sum x_i (x) u y_i
    is symmetric; each witness is verified."""
    A = sys.algebra
    f = A.field

    # d alpha(e_j) = e_j d, linear in d
    alpha = sys.nakayama()
    rows = []
    for j, aj in enumerate(alpha.columns()):
        Rm = A.right_mul_matrix(aj)     # d -> d * alpha(e_j)
        Lm = A.left_mul_matrix(unit_vec(f, A.dim, j))  # d -> e_j * d
        rows.extend((Rm - Lm).rows)
    twisted_centre = kernel_basis(Matrix(f, rows))

    # the products d e_j are the columns of d's left multiplication
    products = [col for d in twisted_centre
                for col in A.left_mul_matrix(d).columns()]
    u = None
    if products and Matrix(f, products).rank() == A.dim:
        u = _invertible_in_span(A, twisted_centre)
    if u is None:
        return SymmetryReport(False, None, None, None)
    u_inv = u.inverse()
    if not (_check_inner(sys, u) and _check_trace_rescaling(sys, u_inv)
            and _check_symmetric_element(sys, u)):
        raise FrobeniusInternalError(
            "a unit of the twisted centre fails a symmetry identity")
    return SymmetryReport(True, u_inv, u, u)


# -- transformations ---------------------------------------------------

def transform_system(sys: FrobeniusSystem, theta: Matrix,
                     anti: bool = False,
                     eps_invariant: bool = False) -> FrobeniusSystem:
    """Transport of a Frobenius system along an algebra automorphism
    (or anti-automorphism): (phi o theta^{-1}, theta x_i, theta y_i),
    with the dual-bases lists swapped in the anti case.  When theta is
    eps-invariant the norm is transported too, with chirality reversed
    by an anti-automorphism; this is verified."""
    A = sys.algebra
    theta_inv = theta.inverse()
    if theta_inv is None:
        raise ValueError("theta is not invertible")
    if _multiplicative_failure(A, A, theta.columns(), anti) is not None:
        kind = "anti-automorphism" if anti else "automorphism"
        raise ValueError(f"theta is not an algebra {kind}")
    new_phi = sys.phi.compose_matrix(theta_inv)
    tx = [Element(A, theta.matvec(x.coords)) for x in sys.xs]
    ty = [Element(A, theta.matvec(y.coords)) for y in sys.ys]
    new_sys = FrobeniusSystem(A, new_phi, ty if anti else tx,
                              tx if anti else ty)
    if eps_invariant:
        if A.counit is None:
            raise StructureError("eps-invariance needs an augmentation")
        eps = Functional(A, A.counit)
        if eps.compose_matrix(theta).coords != eps.coords:
            raise ValueError("theta is not eps-invariant")
        rep = integrals_and_norms(A, sys)
        tn = theta.matvec(rep.right_norm.coords)
        new_rep = integrals_and_norms(A, new_sys)
        expected = new_rep.left_norm if anti else new_rep.right_norm
        if tn != expected.coords:
            raise FrobeniusInternalError(
                "transported norm does not match, chirality "
                + ("reversed" if anti else "preserved"))
    return new_sys


def tensor_system(sysA: FrobeniusSystem,
                  sysB: FrobeniusSystem) -> FrobeniusSystem:
    """Frobenius system phi_A (x) phi_B on the tensor-product algebra."""
    from .structure import tensor_algebra
    A, B = sysA.algebra, sysB.algebra
    T = tensor_algebra(A, B)
    f = T.field
    phi = Functional(T, tensor_vec(f, sysA.phi.coords, sysB.phi.coords))
    xs = [Element(T, tensor_vec(f, x.coords, z.coords))
          for x in sysA.xs for z in sysB.xs]
    ys = [Element(T, tensor_vec(f, y.coords, w.coords))
          for y in sysA.ys for w in sysB.ys]
    return FrobeniusSystem(T, phi, xs, ys)


def find_frobenius_functional(A: HopfData) -> Functional | None:
    """Deterministic search for a nondegenerate functional: dual basis
    vectors first, then the all-ones functional, then small combos."""
    f = A.field
    candidates = [unit_vec(f, A.dim, i) for i in reversed(range(A.dim))]
    candidates.append([f.one] * A.dim)
    candidates.append([f.from_int(i + 1) for i in range(A.dim)])
    for c in candidates:
        phi = Functional(A, c)
        if sys_gram(A, phi).inverse() is not None:
            return phi
    return None
