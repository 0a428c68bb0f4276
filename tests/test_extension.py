"""Twisted Frobenius structure of Hopf subalgebra pairs."""

import dataclasses

import pytest

from fhalg import (ComposedSystem, Element, FrobeniusInternalError,
                   FrobeniusSystem, Matrix, NotHopfSubalgebra,
                   check_norm_identities, compose_transitive, fh_profile,
                   relative_F_and_derivative, relative_system, verify_pair)
from fhalg.presets import cyclic_group_algebra
from fhalg.fields import QQ
from conftest import embedding_from_elements, preset

_pairs: dict = {}


def _pair(key):
    if key in _pairs:
        return _pairs[key]
    if key == "S3/C3":
        H, K = preset("group:S3"), preset("group:C3")
        # generator of C3 maps to the 3-cycle at index 3
        sigma = H.basis_element(3)
        emb = embedding_from_elements(H, [H.one(), sigma, sigma * sigma])
    elif key == "H4/C2":
        H, K = preset("sweedler4"), preset("group:C2")
        emb = embedding_from_elements(H, [H.one(), H.basis_element(2)])
    elif key == "H4/triv":
        H = preset("sweedler4")
        K = cyclic_group_algebra(1, QQ)
        emb = embedding_from_elements(H, [H.one()])
    elif key == "C2/triv":
        H = preset("group:C2")
        K = cyclic_group_algebra(1, QQ)
        emb = embedding_from_elements(H, [H.one()])
    elif key == "H4/H4":
        H = preset("sweedler4")
        K, emb = H, Matrix.identity(H.field, H.dim)
    else:
        raise KeyError(key)
    _pairs[key] = verify_pair(H, K, emb)
    return _pairs[key]


_relsys: dict = {}


def _rel(key):
    if key not in _relsys:
        _relsys[key] = relative_system(_pair(key))
    return _relsys[key]


@pytest.mark.parametrize("key", ["S3/C3", "H4/C2", "H4/triv", "H4/H4"])
def test_relative_system_checks_pass(key):
    rel = _rel(key)
    assert rel.checks.passed, str(rel.checks)


def test_group_pair_is_untwisted():
    rel = _rel("S3/C3")
    K = _pair("S3/C3").K
    assert rel.beta == Matrix.identity(K.field, K.dim)


def test_group_pair_expectation_is_coset_projection():
    pair = _pair("S3/C3")
    rel = _rel("S3/C3")
    H, K = pair.H, pair.K
    for i in range(H.dim):
        img = rel.expect(H.basis_element(i))
        pulled = pair.embed(img)
        # basis elements inside the subalgebra project to themselves,
        # the rest of the coset to zero
        inside = any(pair.embed(K.basis_element(j)).coords ==
                     H.basis_element(i).coords for j in range(K.dim))
        if inside:
            assert pulled.coords == H.basis_element(i).coords
        else:
            assert all(H.field.is_zero(c) for c in pulled.coords)


def test_sweedler_pair_twist_negates_the_group_like():
    pair = _pair("H4/C2")
    rel = _rel("H4/C2")
    K = pair.K
    f = K.field
    g = K.basis_element(1)
    assert rel.beta.matvec(g.coords) == g.scale(f.neg(f.one)).coords
    assert rel.beta != Matrix.identity(f, K.dim)


def test_sweedler_pair_relative_data(sweedler):
    rel = _rel("H4/C2")
    H = sweedler
    x, gx = H.basis_element(1), H.basis_element(3)
    assert rel.lambda_hat.coords == x.coords
    assert rel.lam.coords == gx.scale(H.field.neg(H.field.one)).coords


def test_trivial_pair_expectation_is_frobenius_functional():
    pair = _pair("H4/triv")
    rel = _rel("H4/triv")
    phi = pair.profile_H.f
    assert rel.E.rows == [phi.coords]
    assert rel.lam.coords == pair.profile_H.t.coords


def test_improper_pair_is_trivially_relative(sweedler):
    rel = _rel("H4/H4")
    H = sweedler
    assert rel.E == Matrix.identity(H.field, H.dim)
    assert rel.beta == Matrix.identity(H.field, H.dim)
    assert rel.checks.passed


@pytest.mark.parametrize("key", ["S3/C3", "H4/C2", "H4/triv"])
def test_comparison_map_and_scalar_derivative(key):
    pair = _pair(key)
    rel = _rel(key)
    F, d = relative_F_and_derivative(pair, rel)
    f = pair.H.field
    # d is an invertible scalar multiple of 1
    s = next(c for c, u in zip(d.coords, pair.H.unit) if not f.is_zero(u))
    assert not f.is_zero(s)
    assert F == rel.E.scale(s)


@pytest.mark.parametrize("key", ["S3/C3", "H4/C2", "H4/triv", "H4/H4"])
def test_norm_identities(key):
    res = check_norm_identities(_pair(key), _rel(key))
    assert res.passed, str(res)


def test_norm_identities_need_the_twist():
    """With the twist flattened to the identity the second norm identity
    must fail on the Sweedler pair."""
    pair = _pair("H4/C2")
    rel = _rel("H4/C2")
    K = pair.K
    ident = Matrix.identity(K.field, K.dim)
    mutated = dataclasses.replace(rel, beta=ident, beta_inv=ident)
    res = check_norm_identities(pair, mutated)
    assert not res.passed
    assert any("m_H" in c.name and not c.passed for c in res.checks)


def test_rescaled_relative_integral_is_rejected():
    pair = _pair("H4/C2")
    rel = _rel("H4/C2")
    f = pair.H.field
    mutated = dataclasses.replace(rel, lam=rel.lam.scale(f.from_int(2)))
    with pytest.raises(FrobeniusInternalError):
        relative_F_and_derivative(pair, mutated)


def test_rejects_non_subcoalgebra():
    """g -> -g respects multiplication but not comultiplication."""
    H = preset("sweedler4")
    K = preset("group:C2")
    g = H.basis_element(2)
    emb = embedding_from_elements(
        H, [H.one(), g.scale(H.field.neg(H.field.one))])
    with pytest.raises(NotHopfSubalgebra):
        verify_pair(H, K, emb)


def test_rejects_non_multiplicative_embedding():
    """C3 -> C4 sending g^k to g^k keeps the unit and g g = g^2 but
    fails first at g g^2 = 1, whose image is g^3."""
    H = preset("group:C4")
    K = preset("group:C3")
    emb = embedding_from_elements(H, [H.basis_element(k) for k in range(3)])
    with pytest.raises(NotHopfSubalgebra,
                       match=r"^not multiplicative at g \* g\^2$"):
        verify_pair(H, K, emb)


def test_rejects_unit_mismatch():
    H = preset("sweedler4")
    K = preset("group:C2")
    emb = embedding_from_elements(H, [H.basis_element(2), H.one()])
    with pytest.raises(NotHopfSubalgebra):
        verify_pair(H, K, emb)


def test_rejects_degenerate_embedding():
    H = preset("sweedler4")
    K = preset("group:C2")
    emb = embedding_from_elements(H, [H.one(), H.one()])
    with pytest.raises(NotHopfSubalgebra):
        verify_pair(H, K, emb)


def test_compose_with_absolute_inner_system():
    pair = _pair("H4/C2")
    rel = _rel("H4/C2")
    inner = pair.profile_K.system
    composed = compose_transitive(rel, inner)
    assert isinstance(composed, FrobeniusSystem)
    composed.verify_dual_bases()
    assert composed.algebra is pair.H


def test_compose_with_relative_inner_system(sweedler):
    outer = _rel("H4/C2")
    # inner: the trivial subalgebra of C2, embedded compatibly
    K = _pair("H4/C2").K
    T = cyclic_group_algebra(1, QQ)
    inner_pair = verify_pair(K, T, embedding_from_elements(K, [K.one()]))
    inner = relative_system(inner_pair)
    composed = compose_transitive(outer, inner)
    assert isinstance(composed, ComposedSystem)
    assert composed.checks.passed
    assert composed.pair.H is sweedler
    assert composed.pair.K.dim == 1


def test_composed_derivative_matches_direct_trivial_pair():
    """Composing H4 over C2 over the trivial subalgebra lands on the
    same conditional expectation as the direct trivial pair."""
    outer = _rel("H4/C2")
    K = _pair("H4/C2").K
    T = cyclic_group_algebra(1, QQ)
    inner_pair = verify_pair(K, T, embedding_from_elements(K, [K.one()]))
    inner = relative_system(inner_pair)
    composed = compose_transitive(outer, inner)
    direct = _rel("H4/triv")
    # both are rank-one expectations onto the line k*1; they agree up to
    # the invertible scalar relating the two Frobenius functionals
    f = QQ
    row_c = composed.E.rows[0]
    row_d = direct.E.rows[0]
    i = next(i for i, c in enumerate(row_d) if not f.is_zero(c))
    scale = f.div(row_c[i], row_d[i])
    assert not f.is_zero(scale)
    assert row_c == [f.mul(scale, c) for c in row_d]
