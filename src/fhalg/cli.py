"""Command-line interface.

Exit codes: 0 all checks pass, 1 a mathematical identity was falsified,
2 the input could not be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .double import (DoubleConstructionError, build_double,
                     check_double_integrals, check_double_symmetric,
                     check_quasitriangular)
from .extension import (LambdaHatUnsolvable, NotHopfSubalgebra,
                        check_norm_identities, relative_F_and_derivative,
                        relative_system, verify_pair)
from .fh import (Falsification, NotFrobenius, check_radford_element, check_s4,
                 fh_profile, involutivity_report, order_report)
from .fields import FieldError
from .frobenius import (DegenerateFunctional, FrobeniusInternalError,
                        NormNotFound, build_system, find_frobenius_functional,
                        integrals_and_norms, separability_element,
                        symmetric_test)
from .io import SpecFormatError, hopf_to_json, load_embedding, load_spec, \
    save_spec
from .presets import PresetError, get_preset
from .structure import Check, StructureError, verify_axioms

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2

_INPUT_ERRORS = (SpecFormatError, PresetError, FieldError, StructureError,
                 OSError)
_MATH_ERRORS = (Falsification, NotFrobenius, DegenerateFunctional,
                NormNotFound, FrobeniusInternalError, DoubleConstructionError,
                NotHopfSubalgebra, LambdaHatUnsolvable)


def _load(spec_arg: str, check_axioms: bool = True):
    """Resolve a positional spec argument: preset:NAME or a file path."""
    if spec_arg.startswith("preset:"):
        return get_preset(spec_arg[len("preset:"):])
    return load_spec(spec_arg, check_axioms=check_axioms)


def _run_tasks(tasks) -> list:
    """Run (label, thunk) tasks in order; each thunk returns a list of
    Checks, and a mathematical error becomes one failed Check."""
    checks = []
    for label, thunk in tasks:
        try:
            checks.extend(thunk())
        except _MATH_ERRORS as exc:
            checks.append(Check(label, False, str(exc)))
    return checks


def _emit(command: str, fields: dict, checks: list, args) -> int:
    passed = all(c.passed for c in checks)
    if args.json:
        obj = {
            "command": command,
            "fields": fields,
            "checks": [{"name": c.name, "passed": c.passed,
                        "detail": c.detail} for c in checks],
            "passed": passed,
        }
        print(json.dumps(obj, indent=1))
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")
        for c in checks:
            print(str(c))
        print("result: " + ("pass" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_FALSIFIED


def _basic_fields(H) -> dict:
    fields = {}
    if H.name:
        fields["name"] = H.name
    fields.update({"field": repr(H.field), "dim": str(H.dim),
                   "level": H.level})
    return fields


# -- commands ----------------------------------------------------------

def cmd_verify(args) -> int:
    H = _load(args.spec, check_axioms=False)
    report = verify_axioms(H)
    return _emit("verify", _basic_fields(H), report.checks, args)


def _system_checks(sys) -> list:
    """Checks on a Frobenius system (dual bases are verified at build)."""
    return [Check("dual-bases equations", True),
            Check("casimir element invariant", sys.casimir_ok()),
            Check("center sum", sys.center_sum_ok()),
            Check("exchange identity", sys.exchange_ok())]


def _frobenius_report(H, fields: dict, args) -> int:
    """Frobenius data for algebras below bialgebra level."""
    phi = find_frobenius_functional(H)
    if phi is None:
        raise NotFrobenius(f"{H.name or 'algebra'} has no nondegenerate "
                           "functional: not a Frobenius algebra")
    sys = build_system(H, phi)
    fields["functional"] = repr(phi)
    sym = symmetric_test(sys)
    fields["symmetric"] = str(sym.symmetric).lower()
    if H.counit is not None:
        aug = integrals_and_norms(H, sys)
        fields["norm"] = repr(aug.right_norm)
        fields["left norm"] = repr(aug.left_norm)
        fields["modular function"] = repr(aug.modular)
        fields["unimodular"] = str(aug.unimodular).lower()
        fields["separable"] = str(
            separability_element(sys) is not None).lower()
    return _emit("report", fields, _system_checks(sys), args)


def cmd_report(args) -> int:
    H = _load(args.spec)
    fields = _basic_fields(H)
    if H.level != "hopf":
        return _frobenius_report(H, fields, args)
    profile = fh_profile(H)
    sym = symmetric_test(profile.system)
    fields.update({
        "frobenius functional f": repr(profile.f),
        "norm t": repr(profile.t),
        "distinguished group-like b": repr(profile.b),
        "modular function m": repr(profile.m),
        "unimodular": str(profile.unimodular).lower(),
        "counimodular": str(profile.counimodular).lower(),
        "separable": str(profile.separable).lower(),
        "coseparable": str(profile.coseparable).lower(),
        "involutive": str(profile.involutive).lower(),
        "symmetric": str(sym.symmetric).lower(),
        "ord(b)": str(profile.ord_b),
        "ord(m)": str(profile.ord_m),
        "ord(S)": str(profile.ord_S),
        "ord(eta)": str(profile.ord_eta),
    })
    return _emit("report", fields, profile.checks.checks, args)


def cmd_check(args) -> int:
    H = _load(args.spec)
    fields = _basic_fields(H)
    tasks = [("axioms", lambda: verify_axioms(H).checks)]
    if H.level == "hopf":
        profile = fh_profile(H)
        fields["unimodular"] = str(profile.unimodular).lower()
        fields["counimodular"] = str(profile.counimodular).lower()
        tasks += [
            ("profile", lambda: profile.checks.checks),
            ("radford", lambda: check_radford_element(H, profile).checks),
            ("s4", lambda: check_s4(H, profile).checks),
            ("involutivity",
             lambda: involutivity_report(H, profile).checks.checks),
            ("orders", lambda: order_report(H, profile).checks.checks),
            ("symmetry",
             lambda: [Check("symmetry criteria agree", True,
                            f"symmetric={symmetric_test(profile.system).symmetric}")]),
        ]
    else:
        phi = find_frobenius_functional(H)
        if phi is None:
            raise NotFrobenius("not a Frobenius algebra")
        sys = build_system(H, phi)
        tasks.append(("frobenius system", lambda: _system_checks(sys)))
        if H.counit is not None:
            def aug_checks():
                aug = integrals_and_norms(H, sys)
                return [Check("integrals and norms consistent", True,
                              f"unimodular={aug.unimodular}")]
            tasks.append(("integrals", aug_checks))
        tasks.append(
            ("symmetry",
             lambda: [Check("symmetry criteria agree", True,
                            f"symmetric={symmetric_test(sys).symmetric}")]))
    checks = _run_tasks(tasks)
    return _emit("check", fields, checks, args)


def cmd_double(args) -> int:
    H = _load(args.spec)
    if H.level != "hopf":
        raise SpecFormatError("the double needs a full Hopf algebra "
                              f"(got level {H.level})")
    dd = build_double(H)
    profile_H = fh_profile(H)
    profile_D = fh_profile(dd.D)
    tasks = [
        ("quasitriangular", lambda: check_quasitriangular(dd).checks),
        ("integrals",
         lambda: check_double_integrals(dd, profile_H, profile_D).checks),
        ("symmetric",
         lambda: check_double_symmetric(dd, profile_D).checks),
    ]
    checks = _run_tasks(tasks)
    fields = _basic_fields(H)
    fields.update({
        "double dim": str(dd.D.dim),
        "double unimodular": str(profile_D.unimodular).lower(),
        "double symmetric": "true",
        "quasitriangular": "true",
    })
    if not all(c.passed for c in checks):
        fields["double symmetric"] = fields["quasitriangular"] = "unverified"
    if args.out:
        save_spec(dd.D, args.out)
        fields["written"] = args.out
    return _emit("double", fields, checks, args)


def cmd_subpair(args) -> int:
    H = _load(args.hspec)
    K = _load(args.kspec)
    emb = load_embedding(args.embedding, H, K)
    pair = verify_pair(H, K, emb)
    relsys = relative_system(pair)
    _, d = relative_F_and_derivative(pair, relsys)
    norm_checks = check_norm_identities(pair, relsys)
    fields = {
        "H": H.name or args.hspec, "K": K.name or args.kspec,
        "dim H": str(H.dim), "dim K": str(K.dim),
        "Lambda_hat": repr(relsys.lambda_hat),
        "Lambda": repr(relsys.lam),
        "relative modular function chi": repr(relsys.chi),
        "beta trivial": str(
            relsys.beta == relsys.beta.identity(K.field, K.dim)).lower(),
        "derivative d": repr(d),
    }
    checks = ([Check("Hopf subalgebra pair", True)]
              + relsys.checks.checks + norm_checks.checks)
    return _emit("subpair", fields, checks, args)


def cmd_preset(args) -> int:
    H = get_preset(args.name)
    obj = hopf_to_json(H)
    if args.out:
        save_spec(H, args.out)
        fields = _basic_fields(H)
        fields["written"] = args.out
        return _emit("preset", fields, [], args)
    print(json.dumps(obj, indent=1))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhalg",
        description="Exact verification of finite-dimensional Hopf and "
                    "Frobenius algebras given by structure constants.  "
                    "Spec arguments are JSON files or preset:NAME.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--parallel", action="store_true",
                        help="accepted for compatibility; checks run "
                             "serially")
    # accept the global flags after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--parallel", action="store_true",
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="structure axioms at declared level")
    p.add_argument("spec")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", parents=[common], help="Frobenius/Hopf invariants")
    p.add_argument("spec")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", parents=[common], help="full identity suite")
    p.add_argument("spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("double", parents=[common], help="build and verify the Drinfel'd double")
    p.add_argument("spec")
    p.add_argument("--out", help="write the double as a spec file")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("subpair", parents=[common],
                       help="relative Frobenius data for a Hopf subalgebra")
    p.add_argument("hspec")
    p.add_argument("kspec")
    p.add_argument("--embedding", required=True,
                   help="JSON matrix file, one row per basis vector of K")
    p.set_defaults(func=cmd_subpair)

    p = sub.add_parser("preset", parents=[common], help="emit a built-in example as JSON")
    p.add_argument("name")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _MATH_ERRORS as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
