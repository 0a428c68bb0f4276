"""JSON (de)serialization of algebra descriptions and embedding matrices.

File format
-----------
An algebra description is a JSON object with keys:

* ``field``: ``{"kind": "Q"}`` or ``{"kind": "Fp", "p": <prime>}``
* ``dim``: basis size, at most ``MAX_DIM`` (256)
* ``basis``: list of ``dim`` label strings
* ``level``: ``"algebra"``, ``"augmented-algebra"``, ``"bialgebra"`` or
  ``"hopf"``
* ``unit``: coordinates of 1, a list of ``dim`` scalar strings
* ``mul``: sparse structure constants as ``[i, j, k, "coeff"]`` entries,
  meaning e_i * e_j contains coeff * e_k
* ``comul`` (from bialgebra level): sparse ``[i, j, k, "coeff"]`` entries,
  meaning Delta(e_i) contains coeff * e_j (x) e_k
* ``counit`` (from augmented-algebra level): list of ``dim`` scalar strings
* ``antipode`` (hopf level): dense ``dim x dim`` matrix of scalar strings,
  acting on coordinate columns

Scalars are always strings: ``"num"`` or ``"num/den"`` over Q, a decimal
residue over F_p.  Entries repeating an index triple are summed and
zero coefficients are dropped, so serialization emits each nonzero
constant once, in index order.  Load -> serialize -> load is the
identity on all structure tensors.

An embedding file for a subalgebra pair (H, K) is a JSON object
``{"rows": [...]}`` (or a bare list) of ``dim K`` rows, each a list of
``dim H`` scalar strings: row ``i`` gives the coordinates in H of the
image of the i-th basis vector of K.
"""

from __future__ import annotations

import json

from .fields import Field, FieldError, field_from_json
from .linalg import Matrix
from .structure import LEVELS, MAX_DIM, HopfData, StructureError, \
    _comul_from_entries, _mul_from_entries, verify_axioms

__all__ = ["SpecFormatError", "load_spec", "save_spec", "hopf_from_json",
           "hopf_to_json", "load_embedding"]


class SpecFormatError(ValueError):
    """The input file is malformed (as opposed to mathematically wrong)."""


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecFormatError(f"{where}: missing required key {key!r}")
    return obj[key]


def _parse_scalar(field: Field, s, where: str):
    if not isinstance(s, str):
        raise SpecFormatError(
            f"{where}: scalar must be a string, got {type(s).__name__} {s!r}")
    try:
        return field.parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"{where}: bad scalar {s!r}: {exc}") from exc


def _parse_vector(field: Field, data, dim: int, where: str):
    if not isinstance(data, list) or len(data) != dim:
        raise SpecFormatError(f"{where}: expected a list of {dim} scalars")
    return [_parse_scalar(field, s, f"{where}[{i}]")
            for i, s in enumerate(data)]


def _parse_sparse_tensor(field: Field, data, dim: int, where: str):
    """[[i, j, k, "coeff"], ...] -> list of ((i, j, k), coeff) terms."""
    if not isinstance(data, list):
        raise SpecFormatError(f"{where}: expected a list of entries")
    entries = []
    for n, entry in enumerate(data):
        tag = f"{where}[{n}]"
        if (not isinstance(entry, list) or len(entry) != 4):
            raise SpecFormatError(f"{tag}: expected [i, j, k, \"coeff\"]")
        i, j, k, s = entry
        for idx in (i, j, k):
            if not isinstance(idx, int) or not 0 <= idx < dim:
                raise SpecFormatError(
                    f"{tag}: index {idx!r} out of range for dim {dim}")
        entries.append(((i, j, k), _parse_scalar(field, s, tag)))
    return entries


def _parse_matrix(field: Field, data, nrows: int, ncols: int,
                  where: str) -> Matrix:
    if not isinstance(data, list) or len(data) != nrows:
        raise SpecFormatError(f"{where}: expected {nrows} rows")
    rows = []
    for i, row in enumerate(data):
        rows.append(_parse_vector(field, row, ncols, f"{where}[{i}]"))
    return Matrix(field, rows)


def hopf_from_json(obj, name: str = "", check_axioms: bool = True) -> HopfData:
    """Build a HopfData from a parsed JSON object, validating shape,
    index ranges and scalar syntax; optionally verify the structure
    axioms at the declared level and reject on any failure."""
    if not isinstance(obj, dict):
        raise SpecFormatError("top level must be a JSON object")
    try:
        field = field_from_json(_require(obj, "field", "spec"))
    except FieldError as exc:
        raise SpecFormatError(f"spec.field: {exc}") from exc
    dim = _require(obj, "dim", "spec")
    if not isinstance(dim, int) or dim < 1:
        raise SpecFormatError(f"spec.dim: expected a positive integer, "
                              f"got {dim!r}")
    if dim > MAX_DIM:
        raise SpecFormatError(f"spec.dim: {dim} exceeds the limit "
                              f"MAX_DIM = {MAX_DIM}")
    level = obj.get("level", "algebra")
    if level not in LEVELS:
        raise SpecFormatError(f"spec.level: unknown level {level!r}; "
                              f"expected one of {', '.join(LEVELS)}")
    basis = obj.get("basis")
    if basis is not None:
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(b, str) for b in basis)):
            raise SpecFormatError(f"spec.basis: expected {dim} label strings")
    unit = _parse_vector(field, _require(obj, "unit", "spec"), dim,
                         "spec.unit")
    mul = _mul_from_entries(field, dim, _parse_sparse_tensor(
        field, _require(obj, "mul", "spec"), dim, "spec.mul"))
    comul = counit = antipode = None
    if level in ("augmented-algebra", "bialgebra", "hopf"):
        counit = _parse_vector(field, _require(obj, "counit", "spec"), dim,
                               "spec.counit")
    if level in ("bialgebra", "hopf"):
        comul = _comul_from_entries(field, dim, _parse_sparse_tensor(
            field, _require(obj, "comul", "spec"), dim, "spec.comul"))
    if level == "hopf":
        antipode = _parse_matrix(field, _require(obj, "antipode", "spec"),
                                 dim, dim, "spec.antipode")
    try:
        H = HopfData(field, dim, basis, unit, mul, comul=comul,
                     counit=counit, antipode=antipode, level=level,
                     name=obj.get("name", "") or name)
    except StructureError as exc:
        raise SpecFormatError(str(exc)) from exc
    if check_axioms:
        report = verify_axioms(H)
        if not report.passed:
            lines = "; ".join(str(c) for c in report.failures())
            raise SpecFormatError(
                f"structure axioms fail at level {level}: {lines}")
    return H


def hopf_to_json(H: HopfData) -> dict:
    """Serialize back to the JSON description format (all scalars as
    strings, sparse tensors as stored: in index order, zeros dropped)."""
    fmt = H.field.format
    obj: dict = {
        "field": H.field.to_json(),
        "dim": H.dim,
        "basis": list(H.basis),
        "level": H.level,
        "unit": [fmt(c) for c in H.unit],
        "mul": [[i, j, k, fmt(c)]
                for i in range(H.dim) for j in range(H.dim)
                for k, c in H.mul[i][j]],
    }
    if H.name:
        obj["name"] = H.name
    if H.counit is not None:
        obj["counit"] = [fmt(c) for c in H.counit]
    if H.comul is not None:
        obj["comul"] = [[i, j, k, fmt(c)]
                        for i in range(H.dim) for j, k, c in H.comul[i]]
    if H.antipode is not None:
        obj["antipode"] = [[fmt(c) for c in row] for row in H.antipode.rows]
    return obj


def load_spec(path: str, check_axioms: bool = True) -> HopfData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc
    return hopf_from_json(obj, name=path, check_axioms=check_axioms)


def save_spec(H: HopfData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(hopf_to_json(H), fh, indent=1)
        fh.write("\n")


def load_embedding(path: str, H: HopfData, K: HopfData) -> Matrix:
    """Read an embedding file and return the dim H x dim K matrix whose
    columns are the images in H of the basis vectors of K."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc
    rows = obj.get("rows") if isinstance(obj, dict) else obj
    m = _parse_matrix(K.field, rows, K.dim, H.dim, f"{path}: embedding")
    return m.transpose()
