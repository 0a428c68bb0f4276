"""The benchmark's workloads: seeded inputs, the command lists and the
hand-written table of answers every verdict is checked against.

The seed does two things only: it picks each Taft prime and it permutes
the command order.  No expected answer depends on either.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("catalog-check", "double-build", "spec-verify")

# Taft primes come from the code's own constraint: the preset needs a
# primitive n-th root of unity, so n | p - 1.  Primes below 100 are left
# out because the symmetry search draws coefficients from range(min(p, 8))
# and hits accidental zeros more often for small p, which would make the
# work per seed differ.
PRIME_RANGE = range(100, 1000)

# -- the expected answers ----------------------------------------------
# Each fact follows from the mathematics, never from recorded output.

# k[G]: sum_g g is a two-sided integral (unimodular); k^G is commutative,
# so its integrals are two-sided too (counimodular); delta_e is a trace
# form (symmetric).
GROUP = {"unimodular": "true", "counimodular": "true", "symmetric": True}
# k^G: commutative, so left and right integrals coincide (unimodular); its
# dual k[G] is unimodular (counimodular); a commutative Frobenius algebra
# is symmetric.
DUAL_GROUP = {"unimodular": "true", "counimodular": "true",
              "symmetric": True}
# Sweedler and Taft algebras: the left integral (sum_i g^i) x^{n-1} is not
# a right integral (not unimodular); they are self-dual (not counimodular);
# a symmetric Hopf algebra is unimodular (Oberst-Schneider), so not
# symmetric.
TAFT = {"unimodular": "false", "counimodular": "false", "symmetric": False}
# k[X]/(X^n): commutative, so every Frobenius form is symmetric and left
# and right integrals coincide.
TRUNCPOLY = {"unimodular": True, "symmetric": True}
# D(H) = H^{*cop} (x) H has dimension (dim H)^2; it is unimodular (Radford)
# and quasitriangular (Drinfel'd); unimodular with S^2 inner (by the
# Drinfel'd element u) makes it symmetric (Oberst-Schneider).
DOUBLE = {"double unimodular": "true", "double symmetric": "true",
          "quasitriangular": "true"}

# Reason strings the CLI prints for the falsified canaries.
NOT_CLOSED = "comultiplication not closed"


def taft_primes(n: int) -> list[int]:
    from fhalg.fields import is_prime
    return [p for p in PRIME_RANGE if is_prime(p) and (p - 1) % n == 0]


def _hopf_check(preset: str, facts: dict) -> dict:
    return {"argv": ["check", "--json", f"preset:{preset}"],
            "expect": {"exit": 0,
                       "fields": {"unimodular": facts["unimodular"],
                                  "counimodular": facts["counimodular"]},
                       "details": {"symmetry criteria agree":
                                   f"symmetric={facts['symmetric']}"}}}


def _catalog(rng: random.Random, workdir: str) -> tuple[list, list]:
    commands = [_hopf_check(f"group:{g}", GROUP)
                for g in ("C2", "C5", "S3", "D4", "Q8")]
    commands.append(_hopf_check("dual-group:S3", DUAL_GROUP))
    commands.append(_hopf_check("sweedler4", TAFT))
    for n in (3, 4, 5):
        commands.append(_hopf_check(f"taft:{n}:{rng.choice(taft_primes(n))}",
                                    TAFT))
    commands.append({
        "argv": ["check", "--json", "preset:truncpoly:5"],
        "expect": {"exit": 0, "details": {
            "integrals and norms consistent":
                f"unimodular={TRUNCPOLY['unimodular']}",
            "symmetry criteria agree":
                f"symmetric={TRUNCPOLY['symmetric']}"}}})
    for n in (3, 5):
        commands.append({
            "argv": ["report", "--json", f"preset:truncpoly:{n}"],
            "expect": {"exit": 0, "fields": {
                "unimodular": str(TRUNCPOLY["unimodular"]).lower(),
                "symmetric": str(TRUNCPOLY["symmetric"]).lower()}}})
    return commands, []


def _double_build(rng: random.Random, workdir: str) -> tuple[list, list]:
    commands = []
    ladder = (("sweedler4", 4), ("group:C4", 4), ("group:C3", 3),
              (f"taft:2:{rng.choice(taft_primes(2))}", 4))
    for preset, n in ladder:
        out = os.path.join(workdir, f"D_{preset.replace(':', '_')}.json")
        commands.append({
            "argv": ["double", "--json", "--out", out, f"preset:{preset}"],
            "expect": {"exit": 0,
                       "fields": dict(DOUBLE, **{"double dim": str(n * n)}),
                       "written_dim": n * n}})
    return commands, []


def _primal_embedding(H, D) -> list:
    """Rows e_j -> eps (x) e_j of H inside D(H), placed by basis label:
    the unit of H^* is eps = sum_i eps(e_i) e^i."""
    fmt = H.field.format
    rows = []
    for j in range(H.dim):
        row = ["0"] * D.dim
        for i in range(H.dim):
            if not H.field.is_zero(H.counit[i]):
                row[D.basis.index(f"{H.basis[i]}^(x){H.basis[j]}")] = \
                    fmt(H.counit[i])
        rows.append(row)
    return rows


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _spec_verify(rng: random.Random, workdir: str) -> tuple[list, list]:
    from fhalg import build_double, get_preset, save_spec
    from fhalg.fields import GF
    from fhalg.presets import cyclic_group_algebra

    commands, files = [], []

    def path(name):
        return os.path.join(workdir, name)

    doubles = {}
    for preset in ("sweedler4", "group:C4", "group:C5"):
        H = get_preset(preset)
        D = build_double(H).D
        tag = preset.replace(":", "_")
        save_spec(D, path(f"D_{tag}.json"))
        _write_json(path(f"emb_{tag}.json"), {"rows": _primal_embedding(H, D)})
        doubles[preset] = D
        files.append({"path": path(f"D_{tag}.json"), "dim": D.dim,
                      "field": "Q"})
        files.append({"path": path(f"emb_{tag}.json"), "rows": H.dim,
                      "cols": D.dim})
        commands.append({
            "argv": ["verify", "--json", path(f"D_{tag}.json")],
            "expect": {"exit": 0, "fields": {"dim": str(H.dim ** 2),
                                             "level": "hopf"}}})
        commands.append({
            "argv": ["subpair", "--json", path(f"D_{tag}.json"),
                     f"preset:{preset}",
                     "--embedding", path(f"emb_{tag}.json")],
            "expect": {"exit": 0, "fields": {"dim H": str(H.dim ** 2),
                                             "dim K": str(H.dim)}}})

    # k[C5] over F_p inside taft:5:p: g^a -> g^a, matched by label
    p = rng.choice(taft_primes(5))
    taft = get_preset(f"taft:5:{p}")
    K = cyclic_group_algebra(5, GF(p))
    save_spec(K, path("C5_Fp.json"))
    rows = [["0"] * taft.dim for _ in range(K.dim)]
    for a, label in enumerate(K.basis):
        rows[a][taft.basis.index(label)] = "1"
    _write_json(path("emb_taft.json"), {"rows": rows})
    files.append({"path": path("C5_Fp.json"), "dim": 5, "field": "Fp"})
    files.append({"path": path("emb_taft.json"), "rows": 5, "cols": 25})
    commands.append({
        "argv": ["subpair", "--json", f"preset:taft:5:{p}",
                 path("C5_Fp.json"), "--embedding", path("emb_taft.json")],
        "expect": {"exit": 0, "fields": {"dim H": "25", "dim K": "5"}}})

    # Canary 1: D(sweedler4) with one multiplication constant moved by +1.
    # The entry avoids e_0, a summand of the unit, so the unit axiom still
    # holds and the associativity and bialgebra checks must find it.
    with open(path("D_sweedler4.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    unit_index = spec["unit"].index("1")
    entry = next(e for e in spec["mul"] if unit_index not in (e[0], e[1]))
    entry[3] = str(Fraction(entry[3]) + 1)
    _write_json(path("D_sweedler4_bad.json"), spec)
    files.append({"path": path("D_sweedler4_bad.json"), "dim": 16,
                  "field": "Q", "differs_from": path("D_sweedler4.json")})
    commands.append({
        "argv": ["verify", "--json", path("D_sweedler4_bad.json")],
        "expect": {"exit": 1}})

    # Canary 2: k[C2] -> D(C4), g -> u = sum_i s_i e^i (x) 1 with
    # s = (1, -1, 1, 1).  u^2 = 1 and eps(u) = 1, but s is not a character
    # of C4 (s(g) s(g^2) != s(g^3)), so u is not group-like.
    D = doubles["group:C4"]
    signs = {"1": "1", "g": "-1", "g^2": "1", "g^3": "1"}
    u = ["0"] * D.dim
    for label, s in signs.items():
        u[D.basis.index(f"{label}^(x)1")] = s
    unit = [D.field.format(c) for c in D.unit]
    _write_json(path("emb_bad.json"), {"rows": [unit, u]})
    files.append({"path": path("emb_bad.json"), "rows": 2, "cols": 16})
    commands.append({
        "argv": ["subpair", "--json", path("D_group_C4.json"),
                 "preset:group:C2", "--embedding", path("emb_bad.json")],
        "expect": {"exit": 1, "stderr": NOT_CLOSED}})
    return commands, files


BUILDERS = {"catalog-check": _catalog, "double-build": _double_build,
            "spec-verify": _spec_verify}


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Generate and write a workload's inputs; return its manifest."""
    rng = random.Random(seed)
    commands, files = BUILDERS[workload](rng, workdir)
    rng.shuffle(commands)
    return {"workload": workload, "seed": seed, "commands": commands,
            "files": files}


def check_inputs(manifest: dict) -> list[str]:
    """Shape checks on every generated file against the table above."""
    problems = []
    for entry in manifest["files"]:
        with open(entry["path"], encoding="utf-8") as fh:
            obj = json.load(fh)
        name = os.path.basename(entry["path"])
        if "dim" in entry:
            if obj.get("dim") != entry["dim"] or obj.get("level") != "hopf" \
                    or obj.get("field", {}).get("kind") != entry["field"]:
                problems.append(f"{name}: expected a {entry['field']} Hopf "
                                f"spec of dim {entry['dim']}")
        else:
            rows = obj["rows"]
            if len(rows) != entry["rows"] or \
                    any(len(r) != entry["cols"] for r in rows):
                problems.append(f"{name}: expected a {entry['rows']} x "
                                f"{entry['cols']} embedding")
        if "differs_from" in entry:
            with open(entry["differs_from"], encoding="utf-8") as fh:
                good = json.load(fh)
            changed = [a for a, b in zip(obj["mul"], good["mul"]) if a != b]
            if len(changed) != 1 or dict(obj, mul=0) != dict(good, mul=0):
                problems.append(f"{name}: expected exactly one changed "
                                "mul constant")
    return problems


def check_verdict(expect: dict, code, stdout: str, stderr: str) -> str:
    """Empty string when the command's verdict matches the table, else
    what differs."""
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}: {stderr.strip()}"
    if "stderr" in expect:
        return "" if expect["stderr"] in stderr else \
            f"stderr lacks {expect['stderr']!r}: {stderr.strip()}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if out.get("passed") is not (expect["exit"] == 0):
        return f"passed = {out.get('passed')}"
    fields = out.get("fields", {})
    for key, value in expect.get("fields", {}).items():
        if fields.get(key) != value:
            return f"field {key!r} = {fields.get(key)!r}, expected {value!r}"
    details = {c.get("name"): c.get("detail") for c in out.get("checks", [])}
    for name, value in expect.get("details", {}).items():
        if details.get(name) != value:
            return f"check {name!r} detail {details.get(name)!r}, " \
                   f"expected {value!r}"
    if "written_dim" in expect:
        try:
            with open(fields.get("written", ""), encoding="utf-8") as fh:
                dim = json.load(fh).get("dim")
        except (OSError, json.JSONDecodeError) as exc:
            return f"written double unreadable: {exc}"
        if dim != expect["written_dim"]:
            return f"written double has dim {dim}"
    return ""
