"""Frobenius systems, integrals, norms, derivatives, symmetry."""

import re

import pytest

from fhalg import (GF, QQ, DegenerateFunctional, Element,
                   FrobeniusInternalError, FrobeniusSystem, Functional, Matrix,
                   build_system, derivative, find_frobenius_functional,
                   get_preset, integral_space, integrals_and_norms, nakayama,
                   separability_element, symmetric_test, tensor_system,
                   transform_system)
from fhalg.fh import integral_dual_bases
from conftest import HOPF_PRESETS, PRESET_NAMES, preset, profile

_systems: dict = {}


def system(name):
    if name not in _systems:
        A = preset(name)
        phi = find_frobenius_functional(A)
        assert phi is not None, f"{name} should be Frobenius"
        _systems[name] = build_system(A, phi)
    return _systems[name]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_truncated_polynomial_dual_bases(n):
    """phi dual to X^{n-1} pairs X^i with X^{n-1-i}."""
    A = preset(f"truncpoly:{n}")
    sys = system(f"truncpoly:{n}")
    assert sys.phi.coords == A.basis_element(n - 1).coords
    for i in range(n):
        assert sys.xs[i].coords == A.basis_element(i).coords
        assert sys.ys[i].coords == A.basis_element(n - 1 - i).coords


def test_counit_is_degenerate_on_group_algebra():
    A = preset("group:C2")
    with pytest.raises(DegenerateFunctional):
        build_system(A, A.eps())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_system_invariants(name):
    sys = system(name)
    sys.verify_dual_bases()
    assert sys.casimir_ok()
    assert sys.center_sum_ok()
    assert sys.exchange_ok()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_nakayama_is_a_functional_preserving_automorphism(name):
    sys = system(name)
    alpha = nakayama(sys)
    assert sys.phi.compose_matrix(alpha).coords == sys.phi.coords


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_modular_function_composed_with_nakayama_is_counit(name):
    A = preset(name)
    sys = system(name)
    rep = integrals_and_norms(A, sys)
    alpha = nakayama(sys)
    assert rep.modular.compose_matrix(alpha).coords == A.counit


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_norm_from_dual_bases(name):
    """n = sum eps(x_i) y_i and n = sum x_i m(y_i)."""
    A = preset(name)
    f = A.field
    sys = system(name)
    rep = integrals_and_norms(A, sys)
    n1 = A.element([f.zero] * A.dim)
    n2 = A.element([f.zero] * A.dim)
    for x, y in zip(sys.xs, sys.ys):
        n1 = n1 + y.scale(A.counit_of(x.coords))
        n2 = n2 + x.scale(rep.modular(y))
    assert n1.coords == rep.right_norm.coords
    assert n2.coords == rep.right_norm.coords


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_right_integral_is_a_norm_multiple(name):
    """t = phi(t) n for t in a random-looking integral multiple."""
    A = preset(name)
    f = A.field
    sys = system(name)
    rep = integrals_and_norms(A, sys)
    for base in integral_space(A, "right"):
        t = Element(A, base).scale(f.from_int(3))
        assert t.coords == rep.right_norm.scale(sys.phi(t)).coords


def test_norm_defining_property():
    A = preset("sweedler4")
    sys = system("sweedler4")
    rep = integrals_and_norms(A, sys)
    # phi(n b) = eps(b) on every basis element
    for j in range(A.dim):
        b = A.basis_element(j)
        assert sys.phi(rep.right_norm * b) == A.counit[j]
        assert sys.phi(b * rep.left_norm) == A.counit[j]


def test_derivative_of_rescaled_functional_is_scalar():
    A = preset("group:S3")
    sys1 = system("group:S3")
    two = A.field.from_int(2)
    sys2 = build_system(A, sys1.phi.scale(two))
    d = derivative(sys1, sys2)
    assert d.left.coords == A.one().scale(two).coords
    assert d.right.coords == A.one().scale(two).coords


def test_derivative_recovers_shifting_element(sweedler):
    H = sweedler
    sys1 = system("sweedler4")
    g = H.basis_element(2)
    psi = Functional(H, H.right_mul_matrix(g.coords)
                     .transpose().matvec(sys1.phi.coords))
    sys2 = build_system(H, psi)
    d = derivative(sys1, sys2)
    # psi(b) = phi(b d) with d = g
    assert d.left.coords == g.coords


@pytest.mark.parametrize("name,expected", [
    ("group:C2", True),
    ("group:S3", True),
    ("truncpoly:2", False),
])
def test_separability(name, expected):
    sep = separability_element(system(name))
    assert (sep is not None) == expected


def _check_separability_element(sys):
    """The returned s satisfies sum_i x_i s y_i = 1, multiplied out
    through Element products; returns whether there was one."""
    s = separability_element(sys)
    if s is not None:
        A = sys.algebra
        total = A.element([A.field.zero] * A.dim)
        for x, y in zip(sys.xs, sys.ys):
            total = total + x * s * y
        assert total == A.one()
    return s is not None


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_separability_element_solves_its_equation(name):
    separable = _check_separability_element(system(name))
    if name in HOPF_PRESETS:
        # the non-canonical system (S^{-1} t_2, t_1) of the integrals
        H, prof = preset(name), profile(name)
        sys = FrobeniusSystem(H, prof.f, *integral_dual_bases(H, prof.t))
        assert _check_separability_element(sys) == separable


def test_separability_fails_in_bad_characteristic():
    A = get_preset("group:C2", field=GF(2))
    phi = find_frobenius_functional(A)
    sys = build_system(A, phi)
    assert separability_element(sys) is None


@pytest.mark.parametrize("name,expected", [
    ("group:C2", True),
    ("group:S3", True),
    ("group:Q8", True),
    ("dual-group:S3", True),
    ("truncpoly:3", True),
    ("truncpoly:5", True),
    ("sweedler4", False),
    ("taft:3:13", False),
    ("taft:5:11", False),
])
def test_symmetric_test(name, expected):
    sys = system(name)
    A = sys.algebra
    rep = symmetric_test(sys)
    assert rep.symmetric == expected
    if not expected:
        assert rep.trace_rescaling is None
        assert rep.inner_witness is None
        assert rep.symmetric_element_rescaling is None
        return
    f = A.field
    basis = [A.basis_element(i) for i in range(A.dim)]
    # phi d is a trace, and nondegenerate (build_system raises otherwise)
    d = rep.trace_rescaling
    psi = Functional(A, [sys.phi(d * a) for a in basis])
    assert all(psi(a * b) == psi(b * a) for a in basis for b in basis)
    build_system(A, psi)
    # alpha(a) = u^{-1} a u
    u = rep.inner_witness
    u_inv = u.inverse()
    alpha = nakayama(sys)
    for a in basis:
        assert alpha.matvec(a.coords) == (u_inv * a * u).coords
    # sum x_i (x) c y_i is fixed by the flip
    c = rep.symmetric_element_rescaling
    pairs = [(x.coords, (c * y).coords) for x, y in zip(sys.xs, sys.ys)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = rhs = f.zero
            for x, cy in pairs:
                lhs = f.add(lhs, f.mul(x[i], cy[j]))
                rhs = f.add(rhs, f.mul(x[j], cy[i]))
            assert lhs == rhs


@pytest.mark.parametrize("name", ["sweedler4", "taft:3:13"])
def test_non_symmetric_verdict_needs_no_search(name, monkeypatch):
    """span(T A) != A for the twisted centre T decides these cases."""
    def no_search(*args):
        raise AssertionError("the unit search ran")
    monkeypatch.setattr("fhalg.frobenius._invertible_in_span", no_search)
    assert not symmetric_test(system(name)).symmetric


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_symmetric_and_separable_imply_unimodular(name):
    A = preset(name)
    sys = system(name)
    rep = integrals_and_norms(A, sys)
    if symmetric_test(sys).symmetric:
        assert rep.unimodular
    if separability_element(sys) is not None:
        assert rep.unimodular


def test_transform_system_identity(sweedler):
    H = sweedler
    sys = system("sweedler4")
    from fhalg import Matrix
    moved = transform_system(sys, Matrix.identity(H.field, H.dim),
                             anti=False, eps_invariant=True)
    assert moved.phi.coords == sys.phi.coords


def test_transform_system_antipode_swaps_norm_chirality(sweedler):
    H = sweedler
    sys = system("sweedler4")
    moved = transform_system(sys, H.antipode, anti=True, eps_invariant=True)
    rep = integrals_and_norms(H, sys)
    moved_rep = integrals_and_norms(H, moved)
    st = H.antipode.matvec(rep.right_norm.coords)
    assert moved_rep.left_norm.coords == st


# the first failing basis element of a perturbed canonical system,
# recorded with the earlier implementation that multiplied elements
@pytest.mark.parametrize("name, which, witness", [
    ("sweedler4", "2 y_2", "x"), ("sweedler4", "x_1 + x_0", "x"),
    ("sweedler4", "swap x_0, x_1", "1"),
    ("group:S3", "2 y_2", "(12)"), ("group:S3", "x_1 + x_0", "(23)"),
    ("group:S3", "swap x_0, x_1", "e"),
    ("truncpoly:3", "2 y_2", "1"), ("truncpoly:3", "x_1 + x_0", "X"),
])
def test_wrong_dual_bases_name_the_failing_basis_element(name, which,
                                                         witness):
    sys = system(name)
    xs, ys = list(sys.xs), list(sys.ys)
    if which == "2 y_2":
        ys[2] = ys[2].scale(sys.algebra.field.from_int(2))
    elif which == "x_1 + x_0":
        xs[1] = xs[1] + xs[0]
    else:
        xs[0], xs[1] = xs[1], xs[0]
    with pytest.raises(FrobeniusInternalError, match=(
            f"^dual-bases equations fail on basis element "
            f"{re.escape(witness)}$")):
        FrobeniusSystem(sys.algebra, sys.phi, xs, ys)


@pytest.mark.parametrize("anti", [False, True])
def test_transform_system_rejects_a_non_multiplicative_map(sweedler, anti):
    """g -> 2g is invertible but (2g)(2g) = 4 != 1 = theta(g g)."""
    H = sweedler
    f = H.field
    theta = Matrix.identity(f, H.dim)
    theta.rows[2][2] = f.from_int(2)
    kind = "anti-automorphism" if anti else "automorphism"
    with pytest.raises(ValueError, match=f"^theta is not an algebra {kind}$"):
        transform_system(system("sweedler4"), theta, anti=anti)


def test_tensor_system_norm_is_tensor_of_norms():
    sysA = system("truncpoly:2")
    A = preset("truncpoly:2")
    T_sys = tensor_system(sysA, sysA)
    T = T_sys.algebra
    rep = integrals_and_norms(T, T_sys)
    x = A.basis_element(1).coords
    expected = [T.field.mul(a, b) for a in x for b in x]
    assert rep.right_norm.coords == expected
    assert symmetric_test(T_sys).symmetric
