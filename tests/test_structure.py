"""Structure axioms, duality, variants, actions, convolution."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhalg import (GF, QQ, Functional, HopfData, Matrix, convolution_inverse,
                   dual_hopf, get_preset, hit_left, hit_right, solve_linear,
                   tensor_algebra, variant, verify_axioms)
from fhalg.linalg import vec_add, vec_scale
from fhalg.structure import tensor_square_mul
from conftest import HOPF_PRESETS, PRESET_NAMES, double, preset


@pytest.mark.parametrize("name", PRESET_NAMES + ["D(sweedler4)"])
def test_axioms_pass(name, monkeypatch):
    """The axioms are read off the stored table, never multiplied out."""
    H = double("sweedler4").D if name == "D(sweedler4)" else preset(name)

    def refuse(*args):
        raise AssertionError("verify_axioms multiplied coordinate vectors")

    monkeypatch.setattr(HopfData, "mul_vec", refuse)
    report = verify_axioms(H)
    assert report.passed, str(report)


def _corrupt(name, which):
    """name's structure with one deliberately wrong entry."""
    H = preset(name)
    f = H.field
    one, two = f.one, f.from_int(2)
    mul, comul = copy.deepcopy(H.mul), copy.deepcopy(H.comul)
    counit, S = list(H.counit), [list(r) for r in H.antipode.rows]
    if which == "associativity":
        mul[1][2] = [(3, one)]                  # x g = gx, not -gx
    elif which == "unit":
        mul[0][1] = [(1, two)]                  # 1 x = 2x
    elif which == "eps(1)":
        counit[0] = two
    elif which == "counit-algebra-map":
        counit[1] = one                         # eps(x) = 1
    elif which == "coassociativity":
        comul[1] = [(1, 1, one), (2, 1, one)]   # Delta(x) = x(x)x + g(x)x
    elif which == "counit-axiom":
        comul[0] = [(0, 0, two)]                # Delta(1) = 2 1(x)1
    elif which == "comul-algebra-map":
        comul[1] = [(0, 1, one), (1, 0, one)]   # x primitive
    elif which == "antipode":
        S[3][1] = one                           # S(x) = gx, not -gx
    elif which == "antipode-invertible":
        S[3][1] = f.zero                        # S(x) = 0
    elif which == "F_13 associativity":
        mul[1][1] = [(2, two)]                  # x x = 2 x^2
    return H.copy_with(mul=mul, comul=comul, counit=counit,
                       antipode=Matrix(f, S))


# (failing check, witness) of each corrupted table, recorded with the
# earlier implementation that multiplied dense unit vectors
AXIOM_WITNESSES = {
    ("sweedler4", "associativity"): [
        ("associativity", "(e1*e2)*e2 != e1*(e2*e2)"),
        ("comul-algebra-map", "Delta(e1*e1) != Delta(e1)Delta(e1)"),
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e3")],
    ("sweedler4", "unit"): [
        ("associativity", "(e0*e0)*e1 != e0*(e0*e1)"),
        ("unit", "unit fails on e1"),
        ("comul-algebra-map", "Delta(e1*e1) != Delta(e1)Delta(e1)"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e3")],
    ("sweedler4", "eps(1)"): [
        ("counit-algebra-map", "eps(1) != 1"),
        ("counit-axiom", "counit axiom fails on e0"),
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e0"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e0")],
    ("sweedler4", "counit-algebra-map"): [
        ("counit-algebra-map", "eps(e1*e1) != eps(e1)eps(e1)"),
        ("counit-axiom", "counit axiom fails on e1"),
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e1"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e1")],
    ("sweedler4", "coassociativity"): [
        ("coassociativity", "coassociativity fails on e1"),
        ("counit-axiom", "counit axiom fails on e1"),
        ("comul-algebra-map", "Delta(e1*e2) != Delta(e1)Delta(e2)"),
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e1"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e1")],
    ("sweedler4", "counit-axiom"): [
        ("coassociativity", "coassociativity fails on e1"),
        ("counit-axiom", "counit axiom fails on e0"),
        ("comul-algebra-map", "Delta(1) != 1 (x) 1"),
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e0"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e0")],
    ("sweedler4", "comul-algebra-map"): [
        ("comul-algebra-map", "Delta(e1*e1) != Delta(e1)Delta(e1)"),
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e1"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e1")],
    ("sweedler4", "antipode"): [
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e1"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e1")],
    ("sweedler4", "antipode-invertible"): [
        ("antipode-left", "sum S(a_1)a_2 != eps(a)1 at e1"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e1"),
        ("antipode-invertible", "antipode matrix singular")],
    ("taft:3:13", "F_13 associativity"): [
        ("associativity", "(e1*e1)*e3 != e1*(e1*e3)"),
        ("comul-algebra-map", "Delta(e1*e1) != Delta(e1)Delta(e1)"),
        ("antipode-right", "sum a_1 S(a_2) != eps(a)1 at e8")],
}


@pytest.mark.parametrize("case", AXIOM_WITNESSES, ids=" ".join)
def test_corrupted_table_names_its_witnesses(case):
    report = verify_axioms(_corrupt(*case))
    assert [c.name for c in report.checks] == [
        "associativity", "unit", "counit-algebra-map", "coassociativity",
        "counit-axiom", "comul-algebra-map", "antipode-left",
        "antipode-right", "antipode-invertible"]
    assert [(c.name, c.detail) for c in report.failures()] == \
        AXIOM_WITNESSES[case]


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_dual_is_an_involution(name):
    H = preset(name)
    DD = dual_hopf(dual_hopf(H))
    assert DD.mul == H.mul
    assert DD.comul == H.comul
    assert DD.unit == H.unit
    assert DD.counit == H.counit
    assert DD.antipode == H.antipode


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_dual_satisfies_axioms(name):
    assert verify_axioms(dual_hopf(preset(name))).passed


@pytest.mark.parametrize("which", ["op", "cop", "op-cop"])
def test_variants_satisfy_axioms_and_square_to_identity(which):
    H = preset("sweedler4")
    V = variant(H, which)
    assert verify_axioms(V).passed
    W = variant(V, which)
    assert W.mul == H.mul and W.comul == H.comul
    assert W.antipode == H.antipode


def test_tensor_algebra_axioms():
    A = preset("group:C2")
    B = preset("group:C3")
    T = tensor_algebra(A, B)
    assert T.dim == 6
    assert verify_axioms(T).passed


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_antipode_is_convolution_inverse_of_identity(name):
    H = preset(name)
    S = convolution_inverse(H, Matrix.identity(H.field, H.dim))
    assert S == H.antipode


def _dense_convolution_inverse(H, F):
    """Reference: one dense row of length n^2 per equation (i, r), the
    unknown G[u][j] in column u n + j, solved by solve_linear, then the
    two-sided check through dense products."""
    f, n = H.field, H.dim
    Fcols = F.columns()
    # prods[k][r][u]: coefficient of e_r in e_u F(e_k)
    prods = [H.right_mul_matrix(Fk).rows for Fk in Fcols]
    rows, rhs = [], []
    for i in range(n):
        for r in range(n):
            row = [f.zero] * (n * n)
            for j, k, c in H.comul[i]:
                for u, v in enumerate(prods[k][r]):
                    row[u * n + j] = f.add(row[u * n + j], f.mul(c, v))
            rows.append(row)
            rhs.append(f.mul(H.counit[i], H.unit[r]))
    sol = solve_linear(Matrix(f, rows), rhs)
    if sol is None:
        return None
    G = Matrix(f, [[sol[u * n + j] for j in range(n)] for u in range(n)])
    Gcols = G.columns()
    for i in range(n):
        acc = [f.zero] * n
        for j, k, c in H.comul[i]:
            acc = vec_add(f, acc, vec_scale(f, c, H.mul_vec(Fcols[j],
                                                            Gcols[k])))
        if acc != vec_scale(f, H.counit[i], H.unit):
            return None
    return G


def _unit_counit(H):
    """The matrix of eta eps, the unit of the convolution algebra."""
    f = H.field
    return Matrix(f, [[f.mul(u, e) for e in H.counit] for u in H.unit])


CONVOLUTION_CASES = [(name, None) for name in HOPF_PRESETS] + [
    ("group:S3", GF(7)), ("group:Q8", GF(3)), ("sweedler4", GF(5))]


@pytest.mark.parametrize("name,field", CONVOLUTION_CASES,
                         ids=str)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_convolution_inverse_matches_dense_system(name, field, data):
    """A sparse F (a multiple of Id, of eta eps or of 0, plus up to three
    entries) has the convolution inverse the dense system gives, or None
    for both."""
    H = get_preset(name, field=field) if field else preset(name)
    f, n = H.field, H.dim
    base = data.draw(st.sampled_from(
        [Matrix.zeros(f, n, n), Matrix.identity(f, n), _unit_counit(H)]))
    F = base.scale(f.from_int(data.draw(st.integers(1, 3))))
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.integers(-2, 2), max_size=3))
    for (r, j), v in cells.items():
        F.rows[r][j] = f.add(F.rows[r][j], f.from_int(v))
    assert convolution_inverse(H, F) == _dense_convolution_inverse(H, F)


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_convolution_inverse_fixed_cases(name):
    """0 has no inverse, eta eps is its own and Id has the antipode."""
    H = preset(name)
    f, n = H.field, H.dim
    assert convolution_inverse(H, Matrix.zeros(f, n, n)) is None
    assert convolution_inverse(H, _unit_counit(H)) == _unit_counit(H)
    assert convolution_inverse(H, Matrix.identity(f, n)) == H.antipode


def test_group_like_inverse_is_antipode_image():
    for name in ["group:C5", "group:S3", "group:Q8"]:
        H = preset(name)
        for i in range(H.dim):
            g = H.basis_element(i)
            assert H.is_group_like(g)
            sg = H.apply_antipode(g, 1)
            assert (sg * g).coords == H.unit
            assert (g * sg).coords == H.unit


def test_harpoon_actions_are_module_actions(sweedler):
    H = sweedler
    eps = H.eps()
    functionals = [Functional(H, [H.field.from_int(v) for v in coords])
                   for coords in ([1, 2, 0, 1], [0, 1, 1, 0], [3, 0, 0, 2])]
    elements = [H.basis_element(i) for i in range(H.dim)]
    for a in elements:
        assert hit_left(eps, a).coords == a.coords
        assert hit_right(a, eps).coords == a.coords
    for g in functionals:
        for h in functionals:
            for a in elements:
                # left action: (g h) -> a = g -> (h -> a)
                assert hit_left(g * h, a).coords == \
                    hit_left(g, hit_left(h, a)).coords
                # right action: a <- (g h) = (a <- g) <- h
                assert hit_right(a, g * h).coords == \
                    hit_right(hit_right(a, g), h).coords
                # the two actions commute
                assert hit_right(hit_left(g, a), h).coords == \
                    hit_left(g, hit_right(a, h)).coords


def test_counit_of_product_is_product_of_counits(sweedler):
    H = sweedler
    f = H.field
    for i in range(H.dim):
        for j in range(H.dim):
            lhs = H.counit_of(H.mul_vec(
                H.basis_element(i).coords, H.basis_element(j).coords))
            rhs = f.mul(H.counit[i], H.counit[j])
            assert lhs == rhs


def test_flipped_structure_constant_is_detected(sweedler):
    broken = copy.deepcopy(sweedler.mul)
    f = sweedler.field
    # x * x = 0 in the original; make it 1 instead
    broken[1][1] = [(0, f.one)]
    H = sweedler.copy_with(mul=broken)
    report = verify_axioms(H)
    assert not report.passed
    assert any(not c.passed for c in report.checks)


def test_prime_field_preset_axioms():
    H = get_preset("group:C3", field=GF(7))
    assert H.field == GF(7)
    assert verify_axioms(H).passed


def test_element_and_functional_rendering(sweedler):
    H = sweedler
    assert repr(H.basis_element(2)) == "g"
    assert repr(H.one()) == "1"
    two = H.field.from_int(2)
    assert repr(H.basis_element(1).scale(two)) == "2*x"
    assert repr(H.eps()) == "1^ + g^"


def _constructed(case):
    if case.startswith("dual:"):
        return dual_hopf(preset(case[len("dual:"):]))
    if case in ("op", "cop", "op-cop"):
        return variant(preset("sweedler4"), case)
    if case == "C2 (x) C3":
        return tensor_algebra(preset("group:C2"), preset("group:C3"))
    if case == "D(sweedler4)":
        return double("sweedler4").D
    return preset(case)


@pytest.mark.parametrize("case", PRESET_NAMES + ["dual:sweedler4",
                                                 "dual:taft:3:13", "op",
                                                 "cop", "op-cop",
                                                 "C2 (x) C3", "D(sweedler4)"])
def test_constructors_store_sorted_zero_free_entries(case):
    H = _constructed(case)
    z = H.field.zero
    assert len(H.mul) == H.dim
    for row in H.mul:
        assert len(row) == H.dim
        for entries in row:
            ks = [k for k, _ in entries]
            assert ks == sorted(set(ks))
            assert all(0 <= k < H.dim and c != z for k, c in entries)
    if H.comul is not None:
        assert len(H.comul) == H.dim
        for entries in H.comul:
            keys = [(j, k) for j, k, _ in entries]
            assert keys == sorted(set(keys))
            assert all(c != z for _, _, c in entries)


def _sparse_tensors(n):
    """Sparse elements {(i, j): c} of A (x) A, with nonzero small c."""
    return st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.integers(-3, 3).filter(bool), max_size=4)


@pytest.mark.parametrize("name", ["group:S3", "dual-group:S3", "sweedler4",
                                  "taft:3:13", "truncpoly:4"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tensor_square_mul_matches_the_tensor_algebra(name, data):
    A = preset(name)
    f, n = A.field, A.dim
    u, v = ({key: f.from_int(c) for key, c in
             data.draw(_sparse_tensors(n)).items()} for _ in range(2))

    def dense(t):
        out = [f.zero] * (n * n)
        for (i, j), c in t.items():
            out[i * n + j] = c
        return out

    product = tensor_algebra(A, A).mul_vec(dense(u), dense(v))
    assert tensor_square_mul(A, u, v) == \
        {divmod(p, n): c for p, c in enumerate(product) if c != f.zero}


def _sparse_element(A, data):
    """Coordinates of a random element with at most three nonzero
    coefficients."""
    cells = data.draw(st.dictionaries(st.integers(0, A.dim - 1),
                                      st.integers(-3, 3), max_size=3))
    return [A.field.from_int(cells.get(i, 0)) for i in range(A.dim)]


@pytest.mark.parametrize("name", PRESET_NAMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_multiplication_matrices_match_products(name, data):
    """left_mul_matrix(a) and right_mul_matrix(a), read off the table,
    have the products a e_j and e_j a as their columns."""
    A = preset(name)
    f, n = A.field, A.dim
    a = _sparse_element(A, data)
    units = [A.basis_element(j).coords for j in range(n)]
    assert A.left_mul_matrix(a) == Matrix.from_columns(
        f, [A.mul_vec(a, e) for e in units])
    assert A.right_mul_matrix(a) == Matrix.from_columns(
        f, [A.mul_vec(e, a) for e in units])


@pytest.mark.parametrize("name", HOPF_PRESETS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_element_inverse(name, data):
    """An element with eps(a) = 0 is no unit, since eps(a) eps(a^-1) = 1;
    an inverse that is found is two-sided."""
    A = preset(name)
    f = A.field
    a = A.element(_sparse_element(A, data))
    assert a.inverse() is None or (a * a.inverse() == A.one()
                                   == a.inverse() * a)
    b = a - A.one().scale(A.counit_of(a.coords))
    assert A.counit_of(b.coords) == f.zero
    assert b.inverse() is None
    assert A.one().inverse() == A.one()
