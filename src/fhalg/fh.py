"""Hopf algebras that are Frobenius: canonical integral-based Frobenius
systems, distinguished group-like elements, antipode identities and
order computations."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .frobenius import FrobeniusSystem, _same_span, build_system, \
    integral_space, integrals_and_norms, separability_element, sys_gram
from .linalg import Matrix, matrix_order, solve_linear, unit_vec, vec_scale
from .structure import CheckResult, Element, Functional, HopfData, \
    StructureError, _outer_sum, _tensor_mismatch, convolution_inverse, \
    dual_hopf, hit_left, hit_right


class NotFrobenius(ValueError):
    """The integral structure of the input is not that of a Hopf algebra
    over a field (corrupt input)."""


class Falsification(AssertionError):
    """A proved theorem failed on verified input."""


@dataclass
class FHProfile:
    algebra: HopfData
    f: Functional          # right integral in H*, the Frobenius functional
    t: Element             # right norm: right integral in H with f(t) = 1
    b: Element             # distinguished group-like in H, b = f -> t
    m: Functional          # distinguished group-like in H* (a t = m(a) t)
    eta: Matrix            # Nakayama automorphism of f
    system: FrobeniusSystem
    unimodular: bool
    counimodular: bool
    separable: bool
    coseparable: bool
    involutive: bool
    ord_b: int
    ord_m: int
    ord_S: int
    ord_eta: int
    checks: CheckResult = dc_field(default_factory=CheckResult)

    @property
    def passed(self) -> bool:
        return self.checks.passed


def _m_inverse(H: HopfData, m: Functional) -> Functional:
    """Convolution inverse of a group-like functional: m o S."""
    return m.compose_matrix(H.antipode_matrix())


def fh_profile(H: HopfData) -> FHProfile:
    """Canonical profile of a finite-dimensional Hopf algebra over a
    field: f spans the right integrals of the dual, t is the right norm
    (so f(t) = 1 automatically), b = f -> t and a t = m(a) t."""
    if H.level != "hopf":
        raise StructureError("fh_profile needs a full Hopf structure")
    f = H.field
    n = H.dim
    Hd = dual_hopf(H)

    f_space = integral_space(Hd, "right")
    if len(f_space) != 1:
        raise NotFrobenius(
            f"right integral space of the dual has dimension {len(f_space)}")
    phi = Functional(H, f_space[0])
    try:
        system = build_system(H, phi)
    except Exception as exc:
        raise NotFrobenius(f"integral functional degenerate: {exc}") from exc

    rep = integrals_and_norms(H, system)
    t = rep.right_norm
    m = rep.modular
    checks = CheckResult()
    checks.add("f(t) = 1", phi(t) == f.one)

    # t spans the right integral space of H
    t_space = rep.right_integrals
    checks.add("right integrals of H are 1-dimensional and spanned by t",
               len(t_space) == 1 and _proportional(f, t_space[0], t.coords))

    # the Frobenius element of the canonical system is the integral
    # tensor: sum_i x_i (x) y_i = sum S^{-1}(t_2) (x) t_1
    xs, ys = integral_dual_bases(H, t)
    int_sys = FrobeniusSystem(H, phi, xs, ys)
    checks.add("dual bases (S^{-1}t_2, t_1) valid", True)  # ctor verified
    checks.add("Frobenius element equals sum S^{-1}(t_2) (x) t_1",
               system.frobenius_element() == int_sys.frobenius_element())

    # b = f -> t, group-like, with defining property g f = g(b) f
    b = hit_left(phi, t)
    checks.add("b is group-like", H.is_group_like(b))
    ok = True
    for i in range(n):
        g = Functional(H, unit_vec(f, n, i))
        if (g * phi).coords != vec_scale(f, g(b), phi.coords):
            ok = False
            break
    checks.add("g f = g(b) f for all dual basis g", ok)

    # b as a derivative: S^{-1}f = b f
    g_func = phi.compose_matrix(H.antipode_inv_matrix())
    d_coords = solve_linear(system.gram, g_func.coords)
    checks.add("b equals the derivative of f o S^{-1} with respect to f",
               d_coords == b.coords)

    # m is an algebra map H -> k (group-like in H*): m(1) = 1 and
    # m(e_i e_j) = m(e_i) m(e_j), i.e. the Gram matrix of m is m m^T
    checks.add("m is an algebra map",
               m(H.one()) == f.one and sys_gram(H, m).rows ==
               [[f.mul(a, b) for b in m.coords] for a in m.coords])
    # a t = m(a) t on basis
    ok = all((H.basis_element(j) * t).coords == vec_scale(f, m.coords[j],
                                                          t.coords)
             for j in range(n))
    checks.add("a t = m(a) t", ok)

    m_inv = _m_inverse(H, m)
    checks.add("m o S is the convolution inverse of m",
               (m * m_inv).coords == H.counit and
               (m_inv * m).coords == H.counit)

    # Nakayama eta and the antipode cross-checks
    eta = system.nakayama()
    ok = True
    for j in range(n):
        a = H.basis_element(j)
        rhs = H.apply_antipode(hit_right(a, m_inv), 2)
        rhs2 = hit_right(H.apply_antipode(a, 2), m_inv)
        got = eta.matvec(a.coords)
        if got != rhs.coords or got != rhs2.coords:
            ok = False
            break
    checks.add("eta(a) = S^2(a <- m^{-1}) = (S^2 a) <- m^{-1}", ok)
    eta_inv = eta.inverse()
    ok = eta_inv is not None
    if ok:
        for j in range(n):
            a = H.basis_element(j)
            if eta_inv.matvec(a.coords) != \
                    H.apply_antipode(hit_right(a, m), -2).coords:
                ok = False
                break
    checks.add("eta^{-1}(a) = S^{-2}(a <- m)", ok)

    # S(t) = t <- m, and the left-norm law v a = m^{-1}(a) v for v = S(t)
    St = H.apply_antipode(t, 1)
    checks.add("S(t) = t <- m", St.coords == hit_right(t, m).coords)
    ok = all((St * H.basis_element(j)).coords ==
             vec_scale(f, m_inv.coords[j], St.coords) for j in range(n))
    checks.add("S(t) a = m^{-1}(a) S(t)", ok)
    checks.add("f(S^{-1} t) = 1", phi(H.apply_antipode(t, -1)) == f.one)
    tf = hit_right(t, phi)
    checks.add("t <- f = 1", tf.coords == H.unit)

    # antipode from the norm formula S(a) = sum f(t_1 a) t_2, and from
    # the convolution inverse of the identity
    S_norm = _antipode_from_integral(H, system.gram, t)
    checks.add("S(a) = sum f(t_1 a) t_2", S_norm == H.antipode_matrix())
    S_conv = convolution_inverse(H, Matrix.identity(f, n))
    checks.add("antipode is the convolution inverse of Id",
               S_conv is not None and S_conv == H.antipode_matrix())

    # flags
    unimodular = rep.unimodular
    checks.add("unimodular iff m = eps",
               unimodular == (m.coords == H.counit))
    # S* maps the right integrals of H* onto its left integrals
    dual_left = [Hd.antipode.matvec(v) for v in f_space]
    counimodular = _same_span(f, f_space, dual_left)
    checks.add("counimodular iff b = 1", counimodular == (b.coords == H.unit))
    separable = separability_element(system) is not None
    dual_sys = build_system(Hd, Functional(Hd, t.coords))
    coseparable = separability_element(dual_sys) is not None
    involutive = _is_identity(H.antipode_matrix() * H.antipode_matrix())

    # orders, with the theorem bounds as falsification thresholds
    ord_b = b.order(n)
    ord_m = m.convolution_order(n)
    ord_S = matrix_order(H.antipode_matrix(), 4 * n)
    ord_eta = matrix_order(eta, 2 * n)
    for label, value in (("ord(b) <= dim", ord_b), ("ord(m) <= dim", ord_m),
                         ("ord(S) <= 4 dim", ord_S),
                         ("ord(eta) <= 2 dim", ord_eta)):
        if value is None:
            raise Falsification(f"order bound exceeded: {label}")

    return FHProfile(H, phi, t, b, m, eta, system, unimodular, counimodular,
                     separable, coseparable, involutive,
                     ord_b, ord_m, ord_S, ord_eta, checks)


def integral_dual_bases(H: HopfData, t: Element):
    """Dual-bases lists (S^{-1}(t_2), t_1) read off Delta(t)."""
    xs, ys = [], []
    for (j, k), c in H.comul_of(t.coords).items():
        xs.append(H.apply_antipode(H.basis_element(k), -1).scale(c))
        ys.append(H.basis_element(j))
    return xs, ys


def _antipode_from_integral(H: HopfData, gram: Matrix,
                            t: Element) -> Matrix:
    """S(a) = sum f(t_1 a) t_2 with gram[j][a] = f(e_j e_a): S = C^T G
    for the coefficient matrix C[j][k] of Delta(t)."""
    f = H.field
    dt = H.comul_of(t.coords)
    C = Matrix(f, [[dt.get((j, k), f.zero) for k in range(H.dim)]
                   for j in range(H.dim)])
    return C.transpose() * gram


def _proportional(field, u: list, v: list) -> bool:
    """u and v span the same line (both nonzero)."""
    iu = next((i for i, c in enumerate(u) if c), None)
    iv = next((i for i, c in enumerate(v) if c), None)
    if iu is None or iv is None or iu != iv:
        return False
    r = field.div(v[iu], u[iu])
    return all(field.mul(r, a) == b for a, b in zip(u, v))


def _is_identity(M: Matrix) -> bool:
    return M == Matrix.identity(M.field, M.nrows)


# -- the two antipode theorems ----------------------------------------

def check_radford_element(H: HopfData, profile: FHProfile) -> CheckResult:
    """sum t_2 (x) t_1 = sum b^{-1} S^2(t_1) (x) t_2, evaluated in the
    tensor square."""
    f = H.field
    n = H.dim
    t = profile.t
    b_inv = profile.b.inverse()
    res = CheckResult()
    if b_inv is None:
        res.add("b invertible", False, "distinguished group-like not invertible")
        return res
    dt = H.comul_of(t.coords)
    lhs = {(k, j): c for (j, k), c in dt.items()}
    rhs = _outer_sum(f, (((b_inv * H.apply_antipode(H.basis_element(j), 2))
                          .scale(c).coords, unit_vec(f, n, k))
                         for (j, k), c in dt.items()))
    wit = _tensor_mismatch(H, lhs, rhs)
    res.add("sum t_2 (x) t_1 = sum b^{-1} S^2(t_1) (x) t_2", not wit, wit)
    return res


def check_s4(H: HopfData, profile: FHProfile) -> CheckResult:
    """S^4(a) = b (m^{-1} -> a <- m) b^{-1} on every basis element; if
    unimodular and counimodular this forces S^4 = Id."""
    res = CheckResult()
    b = profile.b
    b_inv = b.inverse()
    if b_inv is None:
        res.add("b invertible", False)
        return res
    m_inv = _m_inverse(H, profile.m)
    ok, wit = True, ""
    for j in range(H.dim):
        a = H.basis_element(j)
        lhs = H.apply_antipode(a, 4)
        rhs = b * hit_right(hit_left(m_inv, a), profile.m) * b_inv
        if lhs.coords != rhs.coords:
            ok, wit = False, f"fails at basis element {H.basis[j]}"
            break
    res.add("S^4(a) = b (m^{-1} -> a <- m) b^{-1}", ok, wit)
    if profile.unimodular and profile.counimodular:
        S2 = H.antipode_matrix() * H.antipode_matrix()
        res.add("unimodular and counimodular force S^4 = Id",
                _is_identity(S2 * S2))
    return res


# -- involutivity and orders ------------------------------------------

@dataclass
class InvolutivityReport:
    applicable: bool
    separable: bool
    coseparable: bool
    s_squared_identity: bool | None
    checks: CheckResult


def involutivity_report(H: HopfData, profile: FHProfile) -> InvolutivityReport:
    """Separable and coseparable (characteristic not 2) force S^2 = Id."""
    f = H.field
    checks = CheckResult()
    if f.kind == "Fp" and f.p == 2:
        checks.add("characteristic 2: involutivity theorem not applicable, "
                   "no claim made", True)
        return InvolutivityReport(False, profile.separable,
                                  profile.coseparable, None, checks)
    sep = profile.separable
    cosep = profile.coseparable
    s2_id = None
    if sep and cosep:
        s2_id = _is_identity(H.antipode_matrix() * H.antipode_matrix())
        checks.add("separable and coseparable force S^2 = Id", s2_id)
    else:
        checks.add("theorem hypotheses (separable and coseparable) not met; "
                   "no S^2 claim", True)
    return InvolutivityReport(True, sep, cosep, s2_id, checks)


@dataclass
class Orders:
    dim: int
    ord_b: int
    ord_m: int
    ord_S: int
    ord_eta: int
    checks: CheckResult


def order_report(H: HopfData, profile: FHProfile) -> Orders:
    """Divisibility consequences of the order theorems, with bound
    overruns treated as falsifications."""
    n = H.dim
    checks = CheckResult()
    checks.add(f"ord(b) = {profile.ord_b} divides dim = {n}",
               n % profile.ord_b == 0)
    checks.add(f"ord(m) = {profile.ord_m} divides dim = {n}",
               n % profile.ord_m == 0)
    checks.add(f"ord(S) = {profile.ord_S} divides 4 dim = {4 * n}",
               (4 * n) % profile.ord_S == 0)
    checks.add(f"ord(eta) = {profile.ord_eta} divides 2 dim = {2 * n}",
               (2 * n) % profile.ord_eta == 0)
    return Orders(n, profile.ord_b, profile.ord_m, profile.ord_S,
                  profile.ord_eta, checks)
