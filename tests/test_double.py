"""Drinfel'd double: construction, R-matrix, integrals, symmetry."""

import dataclasses

import pytest

from fhalg import (DoubleConstructionError, Element, check_double_integrals,
                   check_double_symmetric, check_quasitriangular, fh_profile,
                   matrix_order, verify_axioms)
from fhalg.double import r_matrix_vector
from conftest import double, preset, profile

DOUBLED = ["group:C2", "group:C3", "sweedler4"]

_dprofiles: dict = {}


def dprofile(name):
    if name not in _dprofiles:
        _dprofiles[name] = fh_profile(double(name).D)
    return _dprofiles[name]


@pytest.mark.parametrize("name", DOUBLED)
def test_double_satisfies_hopf_axioms(name):
    dd = double(name)
    assert dd.D.dim == dd.H.dim ** 2
    assert verify_axioms(dd.D).passed


@pytest.mark.parametrize("name", DOUBLED)
def test_both_factors_embed_as_subalgebras(name):
    dd = double(name)
    D, H, dual = dd.D, dd.H, dd.dual
    f = H.field
    for i in range(H.dim):
        for j in range(H.dim):
            a = dd.primal_in_double(H.basis_element(i).coords)
            b = dd.primal_in_double(H.basis_element(j).coords)
            prod = H.mul_vec(H.basis_element(i).coords,
                             H.basis_element(j).coords)
            assert D.mul_vec(a, b) == dd.primal_in_double(prod)
            g = dd.dual_in_double(dual.basis_element(i).coords)
            h = dd.dual_in_double(dual.basis_element(j).coords)
            dprod = dual.mul_vec(dual.basis_element(i).coords,
                                 dual.basis_element(j).coords)
            assert D.mul_vec(g, h) == dd.dual_in_double(dprod)


@pytest.mark.parametrize("name", DOUBLED)
def test_quasitriangular(name):
    res = check_quasitriangular(double(name))
    assert res.passed, str(res)


def test_r_matrix_mutation_is_detected():
    """Swapping the legs of R must break quasi-triangularity."""
    dd = double("sweedler4")
    mutated = dataclasses.replace(
        dd, r_pairs=[(q, p) for p, q in dd.r_pairs])
    res = check_quasitriangular(mutated)
    assert not res.passed
    for check in res.failures():
        assert check.detail, check.name
    tensor_checks = {"R (S' (x) Id)R = 1 = (S' (x) Id)R R",
                     "(Delta (x) Id)R = R13 R23", "(Id (x) Delta)R = R13 R12"}
    for check in res.checks:
        if check.name in tensor_checks and not check.passed:
            assert check.detail.startswith("tensor slot "), check.detail
            assert " != " in check.detail


@pytest.mark.parametrize("name", DOUBLED)
def test_double_integrals(name):
    res = check_double_integrals(double(name), profile(name), dprofile(name))
    assert res.passed, str(res)


@pytest.mark.parametrize("name", DOUBLED)
def test_double_is_symmetric_and_unimodular(name):
    res = check_double_symmetric(double(name), dprofile(name))
    assert res.passed, str(res)
    assert dprofile(name).unimodular


@pytest.mark.parametrize("name", DOUBLED)
def test_double_antipode_order_bound(name):
    D = double(name).D
    n = matrix_order(D.antipode, 4 * D.dim)
    assert n is not None
    assert (4 * D.dim) % n == 0


def test_sweedler_double_shape():
    dd = double("sweedler4")
    assert dd.D.dim == 16
    assert len(dd.r_pairs) == 4
    r = r_matrix_vector(dd)
    assert all(0 <= i < 16 and 0 <= j < 16 for i, j in r)
    f = dd.D.field
    expected = {}
    for p_vec, q_vec in dd.r_pairs:
        for i, a in enumerate(p_vec):
            for j, b in enumerate(q_vec):
                expected[i, j] = f.add(expected.get((i, j), f.zero),
                                       f.mul(a, b))
    assert r == {key: c for key, c in expected.items() if c != f.zero}
    p = dprofile("sweedler4")
    assert p.unimodular
    assert p.passed
