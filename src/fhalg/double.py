"""The quantum double D(H) = H^{*cop} (x) H: construction by the
straightening rule, the universal R-matrix, unimodularity of the double
and symmetry via the Drinfel'd element u."""

from __future__ import annotations

from dataclasses import dataclass

from .fh import FHProfile, _proportional
from .frobenius import _check_trace_rescaling
from .linalg import Matrix, unit_vec, vec_scale, zero_vec
from .structure import MAX_DIM, CheckResult, Element, Functional, \
    HopfData, StructureError, _multiplicative_failure, _outer, _outer_sum, \
    _sparse_sum, _tensor_mismatch, dual_hopf, hit_left, hit_right, \
    tensor_algebra, tensor_square_mul, tensor_vec, variant, verify_axioms


class DoubleConstructionError(RuntimeError):
    """An identity guaranteed by the construction failed (corrupt input
    or implementation bug)."""


@dataclass
class DoubleData:
    H: HopfData
    dual: HopfData              # H^* (standard coproduct)
    D: HopfData                 # the double, basis (dual i, primal j) -> i*n+j
    r_pairs: list               # [(P_i, Q_i)] pure tensor legs of R, D-coords

    def dual_in_double(self, g_coords) -> list:
        """g (x) 1 as a coordinate vector of D."""
        H = self.H
        f = H.field
        return tensor_vec(f, list(g_coords), H.unit)

    def primal_in_double(self, x_coords) -> list:
        """1 (x) x: the unit of H^* is the counit of H."""
        H = self.H
        f = H.field
        return tensor_vec(f, list(H.counit), list(x_coords))


def _cross_products(H: HopfData, dual: HopfData):
    """cross[j][i] = the element x g of D for x = e_j in H and g = e^i
    in H^*, computed by both straightening formulas (which must agree):
    x g = sum (x_1 g S^{-1}x_3) x_2 = sum g_2 (S^{-1}g_1 -> x <- g_3).
    Returned as D-coordinate vectors (dual-major)."""
    f = H.field
    n = H.dim
    s_inv = H.antipode_inv_matrix()
    dual_s_inv = dual.antipode_inv_matrix()
    cross = [[None] * n for _ in range(n)]
    for j in range(n):
        d3 = H.comul2_sparse(j)
        for i in range(n):
            # form 1
            out1 = zero_vec(f, n * n)
            for (p, q, r), c in d3.items():
                sr = s_inv.matvec(unit_vec(f, n, r))
                for h in range(n):
                    w = H.mul_vec(H.mul_vec(sr, unit_vec(f, n, h)),
                                  unit_vec(f, n, p))
                    if w[i] != f.zero:
                        idx = h * n + q
                        out1[idx] = f.add(out1[idx], f.mul(c, w[i]))
            # form 2
            out2 = zero_vec(f, n * n)
            x = H.basis_element(j)
            for (p, q, r), c in dual.comul2_sparse(i).items():
                g1s = Functional(H, dual_s_inv.matvec(unit_vec(f, n, p)))
                g3 = Functional(H, unit_vec(f, n, r))
                y = hit_right(hit_left(g1s, x), g3)
                for h, ch in enumerate(y.coords):
                    if ch != f.zero:
                        idx = q * n + h
                        out2[idx] = f.add(out2[idx], f.mul(c, ch))
            if out1 != out2:
                raise DoubleConstructionError(
                    f"straightening formulas disagree at x = {H.basis[j]}, "
                    f"g = {dual.basis[i]}")
            cross[j][i] = out1
    return cross


def build_double(H: HopfData) -> DoubleData:
    """D(H) with basis pairing (dual index i, primal index j) -> i*n + j,
    coproduct Delta^cop (x) Delta, multiplication from the straightening
    rule and antipode S'(g x) = S(x) S^{-1}(g); fully axiom-checked."""
    if H.level != "hopf":
        raise StructureError("the double needs a full Hopf structure")
    f = H.field
    n = H.dim
    N = n * n
    if N > MAX_DIM:
        raise StructureError(f"the double of a {n}-dimensional algebra has "
                             f"dimension {N}, above the limit "
                             f"MAX_DIM = {MAX_DIM}")
    dual = dual_hopf(H)
    dual_cop = variant(dual, "cop")

    # coalgebra (and labels, unit, counit) from the tensor coalgebra
    shell = tensor_algebra(dual_cop, H)

    cross = _cross_products(H, dual)

    def dual_left_mul(i, vec):
        """(e^i (x) 1) * v for a D-coordinate vector with the dual factor
        acting by H^* multiplication on the dual leg."""
        out = zero_vec(f, N)
        for p, cp in enumerate(vec):
            if cp == f.zero:
                continue
            a, jj = divmod(p, n)
            for k, c in dual.mul[i][a]:
                idx = k * n + jj
                out[idx] = f.add(out[idx], f.mul(cp, c))
        return out

    def primal_right_mul(vec, j2):
        out = zero_vec(f, N)
        for p, cp in enumerate(vec):
            if cp == f.zero:
                continue
            a, jj = divmod(p, n)
            for k, c in H.mul[jj][j2]:
                idx = a * n + k
                out[idx] = f.add(out[idx], f.mul(cp, c))
        return out

    z = f.zero
    mul = [[None] * N for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for i2 in range(n):
                base = dual_left_mul(i, cross[j][i2])
                for j2 in range(n):
                    row = primal_right_mul(base, j2)
                    mul[i * n + j][i2 * n + j2] = [(k, c) for k, c in
                                                   enumerate(row) if c != z]

    D = HopfData(f, N, shell.basis, shell.unit, mul, comul=shell.comul,
                 counit=shell.counit, antipode=Matrix.identity(f, N),
                 level="bialgebra", name=f"D({H.name})" if H.name else "D")

    # antipode S'(g x) = S(x) S^{-1}(g), a product in D
    s_mat = H.antipode_matrix()
    dual_s_inv = dual.antipode_inv_matrix()
    cols = []
    for i in range(n):
        sg = dual_s_inv.matvec(unit_vec(f, n, i))
        sg_D = tensor_vec(f, sg, H.unit)
        for j in range(n):
            sx_D = tensor_vec(f, list(H.counit),
                              s_mat.matvec(unit_vec(f, n, j)))
            cols.append(D.mul_vec(sx_D, sg_D))
    D = HopfData(f, N, shell.basis, shell.unit, mul, comul=shell.comul,
                 counit=shell.counit, antipode=Matrix.from_columns(f, cols),
                 level="hopf", name=f"D({H.name})" if H.name else "D")

    report = verify_axioms(D)
    if not report.passed:
        raise DoubleConstructionError(
            "double fails axioms: "
            + "; ".join(str(c) for c in report.failures()))

    # the two factors embed as subalgebras: g -> g (x) 1 and x -> 1 (x) x
    dual_images = [tensor_vec(f, unit_vec(f, n, i), H.unit)
                   for i in range(n)]
    primal_images = [tensor_vec(f, H.counit, unit_vec(f, n, i))
                     for i in range(n)]
    # the earliest failing pair is named, the dual factor first on a tie
    failures = [(bad, side) for bad, side in (
        (_multiplicative_failure(dual, D, dual_images), "dual"),
        (_multiplicative_failure(H, D, primal_images), "primal"))
        if bad is not None]
    if failures:
        raise DoubleConstructionError(
            f"{min(failures)[1]} factor not a subalgebra")

    return DoubleData(H, dual, D, list(zip(primal_images, dual_images)))


def r_matrix_vector(dd: DoubleData) -> dict:
    """R = sum P_i (x) Q_i as a tensor {(i, j): c} in D (x) D."""
    return _outer_sum(dd.D.field, dd.r_pairs)


def check_quasitriangular(dd: DoubleData) -> CheckResult:
    """R invertible with R Delta(a) = Delta^op(a) R, plus the two
    coproduct equations (Delta (x) Id)R = R13 R23 and
    (Id (x) Delta)R = R13 R12.  A failed tensor identity names its
    smallest differing slot."""
    D = dd.D
    f = D.field
    pairs = dd.r_pairs
    res = CheckResult()
    R = r_matrix_vector(dd)

    # inverse: (S' (x) Id)R, verified directly
    S = D.antipode_matrix()
    R_inv = _outer_sum(f, ((S.matvec(p), q) for p, q in pairs))
    one = _outer(f, D.unit, D.unit)
    wit = (_tensor_mismatch(D, tensor_square_mul(D, R, R_inv), one)
           or _tensor_mismatch(D, tensor_square_mul(D, R_inv, R), one))
    res.add("R (S' (x) Id)R = 1 = (S' (x) Id)R R", not wit, wit)

    # almost cocommutativity on every basis element
    ok, wit = True, ""
    for a in range(D.dim):
        da = {(j, k): c for j, k, c in D.comul[a]}
        da_op = {(k, j): c for j, k, c in D.comul[a]}
        if tensor_square_mul(D, R, da) != tensor_square_mul(D, da_op, R):
            ok, wit = False, f"fails at {D.basis[a]}"
            break
    res.add("R Delta(a) = Delta^op(a) R", ok, wit)

    # triple-tensor equations, expanded in pure R-terms
    lhs = _sparse_sum(f, (((a, b, k), f.mul(c, ck)) for p, q in pairs
                          for (a, b), c in D.comul_of(p).items()
                          for k, ck in enumerate(q) if ck != f.zero))
    rhs = _outer_sum(f, ((pi, pj, D.mul_vec(qi, qj))
                         for pi, qi in pairs for pj, qj in pairs))
    wit = _tensor_mismatch(D, lhs, rhs)
    res.add("(Delta (x) Id)R = R13 R23", not wit, wit)

    lhs = _sparse_sum(f, (((k, a, b), f.mul(ck, c)) for p, q in pairs
                          for (a, b), c in D.comul_of(q).items()
                          for k, ck in enumerate(p) if ck != f.zero))
    rhs = _outer_sum(f, ((D.mul_vec(pi, pj), qj, qi)
                         for pi, qi in pairs for pj, qj in pairs))
    wit = _tensor_mismatch(D, lhs, rhs)
    res.add("(Id (x) Delta)R = R13 R12", not wit, wit)
    return res


def check_double_integrals(dd: DoubleData, profile_H: FHProfile,
                           profile_D: FHProfile) -> CheckResult:
    """T (x) t with T = S^{-1}f is a two-sided integral of D(H); the two
    intermediate tensor identities behind that fact; S(t) (x) f is the
    Frobenius functional of D(H) with (T (x) t) pairing to 1; and D(H)
    is unimodular."""
    H, dual, D = dd.H, dd.dual, dd.D
    f = H.field
    n = H.dim
    res = CheckResult()
    t = profile_H.t
    fr = profile_H.f
    T = fr.compose_matrix(H.antipode_inv_matrix())   # S^{-1}f in H*

    Tt = tensor_vec(f, T.coords, t.coords)           # element of D
    ok_r = ok_l = True
    w_r = w_l = ""
    for a in range(D.dim):
        e = unit_vec(f, D.dim, a)
        target = vec_scale(f, D.counit[a], Tt)
        if D.mul_vec(Tt, e) != target and ok_r:
            ok_r, w_r = False, f"fails at {D.basis[a]}"
        if D.mul_vec(e, Tt) != target and ok_l:
            ok_l, w_l = False, f"fails at {D.basis[a]}"
    res.add("T (x) t is a right integral in D(H)", ok_r, w_r)
    res.add("T (x) t is a left integral in D(H)", ok_l, w_l)

    # intermediate identity: sum S^{-1}(t_3) b^{-1} t_1 (x) t_2 = 1 (x) t
    b_inv = profile_H.b.inverse()
    s_inv = H.antipode_inv_matrix()
    legs = []
    for i, ci in enumerate(t.coords):
        if ci == f.zero:
            continue
        for (p, q, r), c in H.comul2_sparse(i).items():
            v = H.mul_vec(H.mul_vec(s_inv.matvec(unit_vec(f, n, r)),
                                    b_inv.coords), unit_vec(f, n, p))
            legs.append((vec_scale(f, f.mul(ci, c), v), unit_vec(f, n, q)))
    lhs = _outer_sum(f, legs)
    res.add("sum S^{-1}(t_3) b^{-1} t_1 (x) t_2 = 1 (x) t",
            lhs == _outer(f, H.unit, t.coords))

    # intermediate identity in H*: sum T_2 (x) T_3 m S^{-1}(T_1) = T (x) 1
    m_el = list(profile_H.m.coords)                  # m as element of H*
    dual_s_inv = dual.antipode_inv_matrix()
    legs = []
    for i, ci in enumerate(T.coords):
        if ci == f.zero:
            continue
        for (p, q, r), c in dual.comul2_sparse(i).items():
            v = dual.mul_vec(dual.mul_vec(unit_vec(f, n, r), m_el),
                             dual_s_inv.matvec(unit_vec(f, n, p)))
            legs.append((unit_vec(f, n, q), vec_scale(f, f.mul(ci, c), v)))
    lhs = _outer_sum(f, legs)
    res.add("sum T_2 (x) T_3 m S^{-1}(T_1) = T (x) 1",
            lhs == _outer(f, T.coords, dual.unit))

    # S(t) (x) f is a right integral in D(H)^* pairing to 1 against T (x) t
    St = H.apply_antipode(t, 1)
    psi = Functional(D, tensor_vec(f, St.coords, fr.coords))
    ok, wit = True, ""
    for a in range(D.dim):
        g = Functional(D, unit_vec(f, D.dim, a))
        if (psi * g).coords != vec_scale(f, g(D.one()), psi.coords):
            ok, wit = False, f"fails at {D.basis[a]}^"
            break
    res.add("S(t) (x) f is a right integral in D(H)^*", ok, wit)
    res.add("(T (x) t) pairs to 1 against S(t) (x) f",
            psi(Element(D, Tt)) == f.one)

    res.add("fh profile of D(H) passes", profile_D.passed)
    res.add("D(H) is unimodular", profile_D.unimodular)
    res.add("S(t) (x) f spans the right integrals of D(H)^*",
            _proportional(f, profile_D.f.coords, psi.coords))
    return res


def check_double_symmetric(dd: DoubleData,
                           profile_D: FHProfile) -> CheckResult:
    """Drinfel'd element u = sum S'(w_i) z_i implements S'^2 by
    conjugation; the double is a symmetric algebra with Nakayama
    automorphism S'^2 = inner."""
    D = dd.D
    f = D.field
    res = CheckResult()

    u = Element(D, zero_vec(f, D.dim))
    S = D.antipode_matrix()
    for z, w in dd.r_pairs:
        u = u + Element(D, D.mul_vec(S.matvec(w), z))
    u_inv = u.inverse()
    res.add("u invertible", u_inv is not None)
    if u_inv is None:
        return res
    S2 = S * S
    ok, wit = True, ""
    for a in range(D.dim):
        e = D.basis_element(a)
        if S2.matvec(e.coords) != (u * e * u_inv).coords:
            ok, wit = False, f"fails at {D.basis[a]}"
            break
    res.add("S'^2(a) = u a u^{-1}", ok, wit)

    res.add("Nakayama of D(H) equals S'^2 (unimodular case)",
            profile_D.unimodular and profile_D.eta == S2)
    # eta = S'^2 = Ad(u) makes x -> f(u x) a trace, so D(H) is symmetric
    res.add("D(H) is a symmetric algebra",
            _check_trace_rescaling(profile_D.system, u))
    res.add("symmetric confirms unimodular", profile_D.unimodular)
    return res
