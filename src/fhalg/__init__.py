"""Exact verification toolkit for finite-dimensional Hopf and Frobenius
algebras given by structure constants."""

from .fields import GF, QQ, Field, FieldError, FieldMismatchError, \
    PrimeField, RationalField, field_from_json
from .linalg import Matrix, kernel_basis, matrix_order, solve_linear
from .structure import MAX_DIM, Check, CheckResult, Element, Functional, \
    HopfData, StructureError, act, convolution_inverse, dual_hopf, hit_left, \
    hit_right, tensor_algebra, variant, verify_axioms
from .frobenius import AugmentedReport, DegenerateFunctional, Derivative, \
    FrobeniusInternalError, FrobeniusSystem, NormNotFound, SymmetryReport, \
    build_system, derivative, find_frobenius_functional, integral_space, \
    integrals_and_norms, nakayama, separability_element, symmetric_test, \
    tensor_system, transform_system
from .fh import Falsification, FHProfile, InvolutivityReport, NotFrobenius, \
    Orders, check_radford_element, check_s4, fh_profile, involutivity_report, \
    order_report
from .extension import ComposedSystem, LambdaHatUnsolvable, \
    NotHopfSubalgebra, RelativeFrobeniusSystem, SubalgebraPair, \
    check_norm_identities, compose_transitive, relative_F_and_derivative, \
    relative_system, verify_pair
from .double import DoubleConstructionError, DoubleData, build_double, \
    check_double_integrals, check_double_symmetric, check_quasitriangular
from .io import SpecFormatError, hopf_from_json, hopf_to_json, \
    load_embedding, load_spec, save_spec
from .presets import PresetError, get_preset

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
