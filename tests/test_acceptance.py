"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single pass line,
and enforces its runtime budget.  All arithmetic is exact; every
comparison is equality, never approximate.
"""

import dataclasses
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from fhalg import (Element, build_system, check_double_integrals,
                   check_double_symmetric, check_quasitriangular,
                   check_radford_element, check_s4, dual_hopf,
                   find_frobenius_functional, integral_space,
                   integrals_and_norms, involutivity_report, matrix_order,
                   nakayama, order_report, separability_element,
                   symmetric_test, verify_axioms)
from fhalg.cli import main as cli_main
from fhalg.io import hopf_to_json, load_spec, save_spec
from conftest import HOPF_PRESETS, PRESET_NAMES, double, preset, profile

_systems: dict = {}


def system(name):
    if name not in _systems:
        A = preset(name)
        phi = find_frobenius_functional(A)
        _systems[name] = build_system(A, phi)
    return _systems[name]


class budget:
    """Measure a block and fail hard if it exceeds its time budget."""

    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, \
                f"{self.label} took {self.elapsed:.2f}s " \
                f"(budget {self.seconds}s)"
        return False


def test_1_axiom_gate():
    for name in PRESET_NAMES:
        with budget(1.0, f"axioms for {name}"):
            assert verify_axioms(preset(name)).passed, name
    print("\n[1/11] axiom gate over the full preset catalog: PASS")


def test_2_frobenius_core():
    for name in PRESET_NAMES:
        with budget(1.0, f"frobenius core for {name}"):
            sys = system(name)
            sys.verify_dual_bases()
            assert sys.casimir_ok(), name
            assert sys.center_sum_ok(), name
            assert sys.exchange_ok(), name
    print("\n[2/11] dual bases, Casimir, center, exchange: PASS")


def test_3_integrals_norms_modular():
    for name in PRESET_NAMES:
        A = preset(name)
        f = A.field
        sys = system(name)
        rep = integrals_and_norms(A, sys)
        alpha = nakayama(sys)
        # the modular function composed with the Nakayama map is the counit
        assert rep.modular.compose_matrix(alpha).coords == A.counit, name
        # both norm reconstructions from the dual bases
        n1 = A.element([f.zero] * A.dim)
        n2 = A.element([f.zero] * A.dim)
        for x, y in zip(sys.xs, sys.ys):
            n1 = n1 + y.scale(A.counit_of(x.coords))
            n2 = n2 + x.scale(rep.modular(y))
        assert n1.coords == rep.right_norm.coords, name
        assert n2.coords == rep.right_norm.coords, name
        # every integral is phi(t) n; exercise a rescaled one
        for base in integral_space(A, "right"):
            t = Element(A, base).scale(f.from_int(3))
            assert t.coords == rep.right_norm.scale(sys.phi(t)).coords, name
        # implications across the catalog
        if symmetric_test(sys).symmetric:
            assert rep.unimodular, name
        if separability_element(sys) is not None:
            assert rep.unimodular, name
    # mutation: a perturbed modular functional must fail the composition law
    A = preset("sweedler4")
    sys = system("sweedler4")
    rep = integrals_and_norms(A, sys)
    alpha = nakayama(sys)
    bad = rep.modular.scale(A.field.from_int(2))
    assert bad.compose_matrix(alpha).coords != A.counit
    print("\n[3/11] integral/norm/modular laws and implications: PASS")


def test_4_distinguished_elements():
    for name in ["sweedler4", "taft:3:13"]:
        with budget(1.0, f"profile suite for {name}"):
            H = preset(name)
            p = profile(name)
            assert len(integral_space(dual_hopf(H), "right")) == 1, name
            assert p.passed, name
            assert check_radford_element(H, p).passed, name
            assert check_s4(H, p).passed, name
            assert p.eta == nakayama(p.system), name
    H = preset("sweedler4")
    p = profile("sweedler4")
    f = H.field
    assert p.b.coords == H.basis_element(2).coords          # b = g
    assert p.m(H.basis_element(2)) == f.neg(f.one)          # m(g) = -1
    assert p.ord_S == 4 and p.ord_eta == 2
    pt = profile("taft:3:13")
    S2 = preset("taft:3:13").antipode * preset("taft:3:13").antipode
    assert pt.ord_S == 6          # S^4 != Id: the formula is exercised
    assert matrix_order(S2, 36) == 3
    print("\n[4/11] distinguished group-likes, Radford and S^4 laws: PASS")


def test_5_involutivity_conclusions():
    for name in ["group:S3", "dual-group:S3"]:
        rep = involutivity_report(preset(name), profile(name))
        assert rep.applicable and rep.separable and rep.coseparable
        assert rep.s_squared_identity is True
    rep = involutivity_report(preset("sweedler4"), profile("sweedler4"))
    assert rep.applicable and not rep.coseparable
    assert not profile("sweedler4").involutive
    assert rep.checks.passed
    print("\n[5/11] involutivity conclusions without false positives: PASS")


def test_6_subalgebra_pairs():
    from fhalg import (Matrix, check_norm_identities, compose_transitive,
                       relative_F_and_derivative, relative_system,
                       verify_pair)
    from conftest import embedding_from_elements
    with budget(2.0, "subalgebra pair suite"):
        # untwisted group pair
        S3, C3 = preset("group:S3"), preset("group:C3")
        sigma = S3.basis_element(3)
        pair1 = verify_pair(S3, C3, embedding_from_elements(
            S3, [S3.one(), sigma, sigma * sigma]))
        rel1 = relative_system(pair1)
        assert rel1.checks.passed
        assert rel1.beta == Matrix.identity(C3.field, C3.dim)
        # twisted pair inside the four-dimensional example
        H4, C2 = preset("sweedler4"), preset("group:C2")
        pair2 = verify_pair(H4, C2, embedding_from_elements(
            H4, [H4.one(), H4.basis_element(2)]))
        rel2 = relative_system(pair2)
        assert rel2.checks.passed
        g = C2.basis_element(1)
        assert rel2.beta.matvec(g.coords) == \
            g.scale(C2.field.neg(C2.field.one)).coords
        for pair, rel in ((pair1, rel1), (pair2, rel2)):
            F, d = relative_F_and_derivative(pair, rel)
            assert check_norm_identities(pair, rel).passed
        composed = compose_transitive(rel2, pair2.profile_K.system)
        composed.verify_dual_bases()
    print("\n[6/11] twisted Frobenius extension suite: PASS")


def test_7_order_bounds():
    with budget(5.0, "order bounds including doubles"):
        for name in HOPF_PRESETS:
            H = preset(name)
            rep = order_report(H, profile(name))
            assert rep.checks.passed, name
            assert H.dim % rep.ord_b == 0, name
            assert H.dim % rep.ord_m == 0, name
            assert (4 * H.dim) % rep.ord_S == 0, name
            assert (2 * H.dim) % rep.ord_eta == 0, name
        for name in ["group:C2", "sweedler4"]:
            D = double(name).D
            n = matrix_order(D.antipode, 4 * D.dim)
            assert n is not None and (4 * D.dim) % n == 0, name
    print("\n[7/11] order theorems with hard bounds: PASS")


def test_8_quantum_double():
    from fhalg import fh_profile
    with budget(30.0, "double of the four-dimensional example"):
        dd = double("sweedler4")
        assert dd.D.dim == 16
        assert verify_axioms(dd.D).passed
        assert check_quasitriangular(dd).passed
        p_D = fh_profile(dd.D)
        assert p_D.unimodular
        assert check_double_integrals(dd, profile("sweedler4"), p_D).passed
        assert check_double_symmetric(dd, p_D).passed
    print("\n[8/11] quantum double with R-matrix verification: PASS")


def test_9_cli_contract(tmp_path, capsys):
    assert cli_main(["verify", "preset:sweedler4"]) == 0
    assert cli_main(["report", "/missing.json"]) == 2
    # falsified input: a deliberately broken multiplication table
    obj = hopf_to_json(preset("group:C2"))
    obj["mul"] = [e for e in obj["mul"] if e[:3] != [1, 1, 0]] \
        + [[1, 1, 1, "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert cli_main(["verify", str(bad)]) == 1
    # --json round-trips
    capsys.readouterr()
    assert cli_main(["--json", "report", "preset:group:C3"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["passed"] is True
    # serialization round-trips bit-exact
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_spec(preset("taft:3:13"), str(p1))
    save_spec(load_spec(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    print("\n[9/11] CLI exit codes, JSON and serialization: PASS")


def test_10_double_of_s3_cli(capsys):
    """D(S3) has dimension 36: its antipode solve in fh_profile is a
    1296 x 1296 exact system, the largest elimination on this path."""
    capsys.readouterr()
    with budget(8.0, "fhalg --json double preset:group:S3"):
        assert cli_main(["--json", "double", "preset:group:S3"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    print("\n[10/11] double of group:S3 through the CLI: PASS")


def test_11_double_of_taft3_cli():
    """D(Taft_3) has dimension 81: its antipode system in fh_profile has
    6561 unknowns, which a dense n^2 x n^2 matrix would hold in 43 M
    cells.  Run in a fresh interpreter, so that its peak RSS is its own."""
    import fhalg
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(fhalg.__file__))))
    with budget(10.0, "fhalg --json double preset:taft:3:13"):
        proc = subprocess.run(
            [sys.executable, "-m", "fhalg.cli", "--json", "double",
             "preset:taft:3:13"], env=env, capture_output=True, text=True,
            timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB (limit 200 MB)"
    print("\n[11/11] double of taft:3:13 in a fresh interpreter: PASS")
