"""Twisted (beta-)Frobenius extension data for a Hopf subalgebra pair
K of H: the conditional expectation E, the twist beta, relative dual
bases, the comparison map F, transitivity of systems and the norm
identities."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fh import FHProfile, fh_profile, integral_dual_bases
from .frobenius import FrobeniusInternalError, FrobeniusSystem
from .linalg import Matrix, solve_linear, unit_vec, vec_add, vec_scale, \
    zero_vec
from .structure import CheckResult, Element, Functional, HopfData, \
    _multiplicative_failure, _outer_sum, check_same_field, hit_right


class NotHopfSubalgebra(ValueError):
    """The embedding does not present K as a Hopf subalgebra of H."""


class LambdaHatUnsolvable(ValueError):
    """t_H is not a left multiple of the embedded t_K."""


@dataclass
class SubalgebraPair:
    H: HopfData
    K: HopfData
    embedding: Matrix           # H.dim x K.dim, columns are images
    profile_H: FHProfile
    profile_K: FHProfile

    def embed(self, x) -> Element:
        coords = x.coords if isinstance(x, Element) else x
        return Element(self.H, self.embedding.matvec(coords))

    def pull_back(self, h) -> Element | None:
        coords = h.coords if isinstance(h, Element) else h
        sol = solve_linear(self.embedding, coords)
        return Element(self.K, sol) if sol is not None else None


def verify_pair(H: HopfData, K: HopfData, embedding: Matrix) -> SubalgebraPair:
    """Checks that the embedding is an injective algebra map commuting
    with the counit, the comultiplication and the antipode, then
    profiles both algebras."""
    check_same_field(H.field, K.field)
    if (embedding.nrows, embedding.ncols) != (H.dim, K.dim):
        raise NotHopfSubalgebra(
            f"embedding must be {H.dim} x {K.dim}, got "
            f"{embedding.nrows} x {embedding.ncols}")
    f = H.field
    if embedding.rank() != K.dim:
        raise NotHopfSubalgebra("embedding is not injective")
    if embedding.matvec(K.unit) != H.unit:
        raise NotHopfSubalgebra("embedding does not preserve the unit")
    images = embedding.columns()
    bad = _multiplicative_failure(K, H, images)
    if bad is not None:
        i, j = bad
        raise NotHopfSubalgebra(
            f"not multiplicative at {K.basis[i]} * {K.basis[j]}")
    for i in range(K.dim):
        if H.counit_of(images[i]) != K.counit[i]:
            raise NotHopfSubalgebra(f"counit mismatch at {K.basis[i]}")
        # Delta-closure with the comultiplication of K
        expected = _outer_sum(f, ((vec_scale(f, c, images[j]), images[k])
                                  for j, k, c in K.comul[i]))
        if H.comul_of(images[i]) != expected:
            raise NotHopfSubalgebra(
                f"comultiplication not closed at {K.basis[i]}")
        if H.antipode_matrix().matvec(images[i]) != \
                embedding.matvec(K.antipode_matrix()
                                 .matvec(unit_vec(f, K.dim, i))):
            raise NotHopfSubalgebra(f"antipode not closed at {K.basis[i]}")
    return SubalgebraPair(H, K, embedding, fh_profile(H), fh_profile(K))


@dataclass
class RelativeFrobeniusSystem:
    pair: SubalgebraPair
    E: Matrix                   # K.dim x H.dim: the conditional expectation
    beta: Matrix                # twist automorphism of K
    beta_inv: Matrix
    chi: Functional             # relative modular function on K
    lambda_hat: Element         # in H, t_H = lambda_hat * t_K
    lam: Element                # in H, eta_H(S^{-1}(lambda_hat))
    xs: list                    # relative dual bases, Elements of H
    ys: list
    checks: CheckResult = dc_field(default_factory=CheckResult)

    def expect(self, a) -> Element:
        coords = a.coords if isinstance(a, Element) else a
        return Element(self.pair.K, self.E.matvec(coords))


def _relative_equations(H: HopfData, embed_mat: Matrix, E: Matrix,
                        beta_inv: Matrix, xs: list, ys: list,
                        res: CheckResult, tag: str = "") -> None:
    """The two relative dual-bases equations:
    sum beta^{-1}(E(a x_i)) y_i = a = sum x_i E(y_i a)."""
    f = H.field
    ok1 = ok2 = True
    w1 = w2 = ""
    for a_idx in range(H.dim):
        a = H.basis_element(a_idx)
        acc1 = zero_vec(f, H.dim)
        acc2 = zero_vec(f, H.dim)
        for x, y in zip(xs, ys):
            exa = beta_inv.matvec(E.matvec((a * x).coords))
            acc1 = vec_add(f, acc1,
                           H.mul_vec(embed_mat.matvec(exa), y.coords))
            eya = E.matvec((y * a).coords)
            acc2 = vec_add(f, acc2,
                           H.mul_vec(x.coords, embed_mat.matvec(eya)))
        if acc1 != a.coords and ok1:
            ok1, w1 = False, f"fails at {H.basis[a_idx]}"
        if acc2 != a.coords and ok2:
            ok2, w2 = False, f"fails at {H.basis[a_idx]}"
    res.add(tag + "sum beta^{-1}(E(a x_i)) y_i = a", ok1, w1)
    res.add(tag + "sum x_i E(y_i a) = a", ok2, w2)


def relative_system(pair: SubalgebraPair) -> RelativeFrobeniusSystem:
    """E(a) = sum f(a_1 S^{-1}(t_K)) a_2 with relative dual bases
    (S^{-1}(Lambda_2), Lambda_1), Lambda = eta_H(S^{-1}(Lambda_hat)),
    and the twist beta = eta_K o eta_H^{-1} cross-checked against
    beta(x) = x <- chi."""
    H, K = pair.H, pair.K
    f = H.field
    t_H = pair.profile_H.t
    t_K_in_H = pair.embed(pair.profile_K.t)

    lam_hat_coords = solve_linear(H.right_mul_matrix(t_K_in_H.coords),
                                  t_H.coords)
    if lam_hat_coords is None:
        raise LambdaHatUnsolvable("t_H is not in H * t_K")
    lam_hat = Element(H, lam_hat_coords)
    lam = Element(H, pair.profile_H.eta.matvec(
        H.apply_antipode(lam_hat, -1).coords))

    # E
    phi = pair.profile_H.f
    v = H.apply_antipode(t_K_in_H, -1)
    E_cols = []
    for a_idx in range(H.dim):
        acc_H = zero_vec(f, H.dim)
        for j, k, c in H.comul[a_idx]:
            w = phi(H.basis_element(j) * v)
            if w != f.zero:
                acc_H[k] = f.add(acc_H[k], f.mul(c, w))
        pulled = pair.pull_back(acc_H)
        if pulled is None:
            raise FrobeniusInternalError(
                f"E({H.basis[a_idx]}) does not land in K")
        E_cols.append(pulled.coords)
    E = Matrix.from_columns(f, E_cols)

    # beta = eta_K o eta_H^{-1} restricted to K
    eta_H_inv = pair.profile_H.eta.inverse()
    beta_cols = []
    for i in range(K.dim):
        h = eta_H_inv.matvec(pair.embed(K.basis_element(i)).coords)
        pulled = pair.pull_back(h)
        if pulled is None:
            raise FrobeniusInternalError(
                "eta_H^{-1} does not preserve K; not a Hopf subalgebra "
                "situation")
        beta_cols.append(pair.profile_K.eta.matvec(pulled.coords))
    beta = Matrix.from_columns(f, beta_cols)
    beta_inv = beta.inverse()
    if beta_inv is None:
        raise FrobeniusInternalError("twist beta is singular")

    # chi = (m_H restricted to K) * m_K^{-1}, and beta(x) = x <- chi
    m_H_on_K = Functional(
        K, pair.embedding.transpose().matvec(pair.profile_H.m.coords))
    m_K_inv = pair.profile_K.m.compose_matrix(K.antipode_matrix())
    chi = m_H_on_K * m_K_inv
    checks = CheckResult()
    beta_from_chi = Matrix.from_columns(
        f, [hit_right(K.basis_element(i), chi).coords for i in range(K.dim)])
    checks.add("beta = eta_K o eta_H^{-1} agrees with beta(x) = x <- chi",
               beta == beta_from_chi)

    # relative dual bases (S^{-1}(Lambda_2), Lambda_1)
    xs, ys = integral_dual_bases(H, lam)

    _relative_equations(H, pair.embedding, E, beta_inv, xs, ys, checks)

    # twisted bimodule law E(b a b') = beta(b) E(a) b'
    ok, wit = True, ""
    for bi in range(K.dim):
        b_H = pair.embed(K.basis_element(bi))
        beta_b = Element(K, beta.matvec(unit_vec(f, K.dim, bi)))
        for a_idx in range(H.dim):
            a = H.basis_element(a_idx)
            Ea = Element(K, E.matvec(a.coords))
            for bj in range(K.dim):
                b2_H = pair.embed(K.basis_element(bj))
                lhs = E.matvec((b_H * a * b2_H).coords)
                rhs = (beta_b * Ea * K.basis_element(bj)).coords
                if lhs != rhs:
                    ok = False
                    wit = (f"fails at ({K.basis[bi]}, {H.basis[a_idx]}, "
                           f"{K.basis[bj]})")
                    break
            if not ok:
                break
        if not ok:
            break
    checks.add("E(b a b') = beta(b) E(a) b'", ok, wit)

    if not checks.passed:
        raise FrobeniusInternalError(
            "relative system verification failed: "
            + "; ".join(str(c) for c in checks.failures()))
    return RelativeFrobeniusSystem(pair, E, beta, beta_inv, chi, lam_hat,
                                   lam, xs, ys, checks)


def relative_F_and_derivative(pair: SubalgebraPair,
                              relsys: RelativeFrobeniusSystem):
    """The comparison Frobenius homomorphism F(a) = sum f(a S^{-1}(n_2)) n_1
    built from the norm n = t_K, the scalar derivative d = f(S^{-1}(n Lambda)) 1
    with F = E d, and the factorization f = g o F."""
    H, K = pair.H, pair.K
    f = H.field
    phi = pair.profile_H.f
    g = pair.profile_K.f
    n = pair.profile_K.t

    dn = K.comul_of(n.coords)
    s_parts = {k: H.apply_antipode(pair.embed(K.basis_element(k)), -1)
               for _, k in dn}
    F_cols = []
    for a_idx in range(H.dim):
        a = H.basis_element(a_idx)
        acc = zero_vec(f, K.dim)
        for (j, k), c in dn.items():
            w = phi(a * s_parts[k])
            if w != f.zero:
                acc[j] = f.add(acc[j], f.mul(c, w))
        F_cols.append(acc)
    F = Matrix.from_columns(f, F_cols)

    # d = (S^{-1}f)(n Lambda) 1_H, an invertible scalar
    s = phi(H.apply_antipode(pair.embed(n) * relsys.lam, -1))
    if s == f.zero:
        raise FrobeniusInternalError("derivative scalar vanishes")
    if F != relsys.E.scale(s):
        raise FrobeniusInternalError("F != E d")
    # f = g o F
    gF = F.transpose().matvec(g.coords)
    if gF != phi.coords:
        raise FrobeniusInternalError("f != g o F")
    return F, Element(H, vec_scale(f, s, H.unit))


@dataclass
class ComposedSystem:
    """A relative system for H over the inner subalgebra, produced by
    transitivity: (E_T o E_S, x_i z_j, beta^{-1}(w_j) y_i)."""
    pair: SubalgebraPair        # H over the inner subalgebra
    E: Matrix
    twist: Matrix
    xs: list
    ys: list
    checks: CheckResult


def compose_transitive(outer: RelativeFrobeniusSystem, inner):
    """Compose the relative system for H/K with a system for K: an
    absolute FrobeniusSystem on K yields an absolute system on H; a
    RelativeFrobeniusSystem for K/T yields a composed relative system
    for H/T with twist gamma o beta (requires beta(T) = T)."""
    pair = outer.pair
    H, K = pair.H, pair.K
    f = H.field

    if isinstance(inner, FrobeniusSystem):
        if inner.algebra is not K:
            raise ValueError("inner system must live on the subalgebra")
    elif isinstance(inner, RelativeFrobeniusSystem):
        if inner.pair.H is not K:
            raise ValueError("inner pair must extend the outer subalgebra")
    else:
        raise TypeError("inner must be a FrobeniusSystem or a "
                        "RelativeFrobeniusSystem")

    # product dual bases (x_i z_j, beta^{-1}(w_j) y_i)
    zs = [pair.embed(z) for z in inner.xs]
    ws = [pair.embed(Element(K, outer.beta_inv.matvec(w.coords)))
          for w in inner.ys]
    xs = [x * z for x in outer.xs for z in zs]
    ys = [w * y for y in outer.ys for w in ws]

    if isinstance(inner, FrobeniusSystem):
        phi = Functional(H, outer.E.transpose().matvec(inner.phi.coords))
        return FrobeniusSystem(H, phi, xs, ys)

    T = inner.pair.K
    emb_KT = inner.pair.embedding
    # beta(T) = T, and the columns of beta restricted to T
    beta_T_cols = []
    for img in (outer.beta * emb_KT).columns():
        col = solve_linear(emb_KT, img)
        if col is None:
            raise ValueError("beta does not preserve the inner subalgebra")
        beta_T_cols.append(col)
    emb_HT = pair.embedding * emb_KT
    new_pair = verify_pair(H, T, emb_HT)
    E = inner.E * outer.E
    # twist = gamma o (beta restricted to T)
    twist = inner.beta * Matrix.from_columns(f, beta_T_cols)
    twist_inv = twist.inverse()
    if twist_inv is None:
        raise FrobeniusInternalError("composed twist is singular")
    checks = CheckResult()
    _relative_equations(H, emb_HT, E, twist_inv, xs, ys, checks,
                        tag="composed: ")
    if not checks.passed:
        raise FrobeniusInternalError("composed system verification failed")
    return ComposedSystem(new_pair, E, twist, xs, ys, checks)


def check_norm_identities(pair: SubalgebraPair,
                          relsys: RelativeFrobeniusSystem) -> CheckResult:
    """beta^{-1}(n) Lambda = Lambda_hat n d, and m_H(x) = m_K(beta(x))
    on every basis element of K."""
    H, K = pair.H, pair.K
    f = H.field
    res = CheckResult()
    n = pair.profile_K.t
    s = pair.profile_H.f(
        H.apply_antipode(pair.embed(n) * relsys.lam, -1))
    lhs = pair.embed(Element(K, relsys.beta_inv.matvec(n.coords))) * \
        relsys.lam
    rhs = (relsys.lambda_hat * pair.embed(n)).scale(s)
    if lhs.coords == rhs.coords:
        res.add("beta^{-1}(n) Lambda = Lambda_hat n d", True)
    else:
        slot = next(i for i in range(H.dim)
                    if lhs.coords[i] != rhs.coords[i])
        res.add("beta^{-1}(n) Lambda = Lambda_hat n d", False,
                f"differs at {H.basis[slot]}")
    ok, wit = True, ""
    for i in range(K.dim):
        lhs_v = pair.profile_H.m(pair.embed(K.basis_element(i)))
        rhs_v = pair.profile_K.m(
            Element(K, relsys.beta.matvec(unit_vec(f, K.dim, i))))
        if lhs_v != rhs_v:
            ok, wit = False, f"fails at {K.basis[i]}"
            break
    res.add("m_H(x) = m_K(beta(x))", ok, wit)
    return res
