"""Integrals, distinguished group-likes, antipode-order theorems."""

import dataclasses

import pytest

from fhalg import (GF, Element, check_radford_element, check_s4, dual_hopf,
                   fh_profile, get_preset, integral_space, involutivity_report,
                   nakayama, order_report)
from conftest import HOPF_PRESETS, preset, profile


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_profile_checks_pass(name):
    p = profile(name)
    assert p.passed, str(p.checks)


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_dual_integrals_are_one_dimensional(name):
    H = preset(name)
    D = dual_hopf(H)
    assert len(integral_space(D, "right")) == 1


def test_sweedler_profile_values(sweedler):
    H = sweedler
    p = profile("sweedler4")
    f = H.field
    one, x, g, gx = (H.basis_element(i) for i in range(4))
    assert p.b.coords == g.coords
    assert p.m(g) == f.neg(f.one)
    assert p.t.coords == (x - gx).coords
    assert p.f(p.t) == f.one
    assert not p.unimodular and not p.counimodular
    assert not p.separable and not p.coseparable
    assert not p.involutive
    assert p.ord_b == 2 and p.ord_m == 2
    assert p.ord_S == 4 and p.ord_eta == 2


def test_taft_profile_values():
    H = preset("taft:3:13")
    p = profile("taft:3:13")
    f = H.field
    g = H.basis_element(3)
    # m(g) is a primitive cube root of unity; S^2 != Id
    assert p.m(g) != f.one and pow(p.m(g), 3, 13) == 1 % 13
    assert p.ord_b == 3 and p.ord_m == 3
    assert p.ord_S == 6 and p.ord_eta == 3
    assert (H.antipode * H.antipode).rows != \
        [list(r) for r in zip(*[[f.one if i == j else f.zero
                                 for j in range(9)] for i in range(9)])]


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_eta_formula_matches_nakayama_machinery(name):
    p = profile(name)
    assert p.eta == nakayama(p.system)


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_radford_tensor_identity(name):
    H = preset(name)
    res = check_radford_element(H, profile(name))
    assert res.passed, str(res)


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_fourth_antipode_power_formula(name):
    H = preset(name)
    res = check_s4(H, profile(name))
    assert res.passed, str(res)


def test_radford_identity_is_falsifiable(sweedler):
    """Replacing b by 1 must break the tensor identity."""
    p = profile("sweedler4")
    mutated = dataclasses.replace(p, b=sweedler.one())
    res = check_radford_element(sweedler, mutated)
    assert not res.passed
    assert res.checks[0].detail == "tensor slot 1 (x) x: 1 != 0"


def test_s4_formula_is_falsifiable(sweedler):
    p = profile("sweedler4")
    mutated = dataclasses.replace(p, b=sweedler.basis_element(3))
    res = check_s4(sweedler, mutated)
    assert not res.passed


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_profile_of_dual_also_passes(name):
    D = dual_hopf(preset(name))
    p = fh_profile(D)
    assert p.passed


def test_dual_profile_data_transposes(sweedler):
    """On the dual, the roles of f and t swap with the original pair."""
    p = profile("sweedler4")
    D = dual_hopf(sweedler)
    pd = fh_profile(D)
    # b and m trade places under duality
    assert pd.m(Element(D, p.b.coords)) is not None
    assert pd.unimodular == (p.b.coords == sweedler.unit)
    assert p.unimodular == (pd.b.coords == D.unit)


@pytest.mark.parametrize("name,sep,cosep,s2", [
    ("group:S3", True, True, True),
    ("dual-group:S3", True, True, True),
    ("group:Q8", True, True, True),
    ("sweedler4", False, False, None),
    ("taft:3:13", False, False, None),
])
def test_involutivity_conclusions(name, sep, cosep, s2):
    H = preset(name)
    rep = involutivity_report(H, profile(name))
    assert rep.applicable
    assert rep.separable == sep
    assert rep.coseparable == cosep
    assert rep.s_squared_identity == s2
    assert rep.checks.passed
    if s2 is None:
        # the theorem makes no claim here, and indeed S^2 != Id
        assert not profile(name).involutive


def test_involutivity_guard_in_characteristic_two():
    H = get_preset("group:C3", field=GF(2))
    rep = involutivity_report(H, fh_profile(H))
    assert not rep.applicable
    assert rep.checks.passed


@pytest.mark.parametrize("name", HOPF_PRESETS)
def test_order_bounds(name):
    H = preset(name)
    rep = order_report(H, profile(name))
    assert rep.checks.passed, str(rep.checks)
    assert rep.dim % rep.ord_b == 0
    assert rep.dim % rep.ord_m == 0
    assert (4 * rep.dim) % rep.ord_S == 0
    assert (2 * rep.dim) % rep.ord_eta == 0


def test_unimodular_iff_counit_modular():
    for name in HOPF_PRESETS:
        H = preset(name)
        p = profile(name)
        assert p.unimodular == (p.m.coords == H.counit)
        assert p.counimodular == (p.b.coords == H.unit)
