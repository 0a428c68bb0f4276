"""Outside-in per-layer tracer for the traced benchmark run.

A layer is one module of ``fhalg``.  Every public function and public
method defined in a layer is wrapped in a span; a layer's self time is
the time of its spans minus the time of the spans they call.  Because
``from .x import y`` re-binds names, each function is replaced in every
``fhalg`` namespace that binds it.  Methods are replaced on their class.

Hot kernels get a counter instead of a span, and the small helpers below
are not wrapped at all: a span per call would cost more than the work.
Their time falls to the caller's self time, as does every inline
``x != f.zero`` test.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("linalg", "structure", "frobenius", "fh", "extension", "double",
          "io", "presets", "cli")

# Counted, not timed.
COUNTED = ("structure.HopfData.mul_vec",)
FIELD_CLASSES = ("RationalField", "PrimeField")
FIELD_OPS = ("add", "mul", "inv")

# Not wrapped: each runs up to millions of times per pass.
UNWRAPPED = frozenset({
    "linalg.zero_vec", "linalg.unit_vec", "linalg.vec_add",
    "linalg.vec_scale", "linalg.vec_dot", "structure.tensor_vec",
    "structure.HopfData.mul_sparse", "structure.HopfData.comul_sparse",
    "structure.HopfData.basis_element",
})

# Each function a per-layer metric names, with the workload that must
# call it.  A traced run of that workload fails when it records no call,
# which catches a wrapper that misses a re-bound name.
REQUIRED = {
    "frobenius.symmetric_test": "catalog-check",
    "linalg.kernel_basis": "catalog-check",
    "linalg.Matrix.rref": "catalog-check",
    "structure.Element.inverse": "catalog-check",
    "structure.dual_hopf": "catalog-check",
    "presets.get_preset": "catalog-check",
    "cli.main": "catalog-check",
    "structure.tensor_square_mul": "double-build",
    "structure.HopfData.mul_vec": "double-build",
    "structure.convolution_inverse": "double-build",
    "fields.add": "double-build",
    "fields.mul": "double-build",
    "fields.inv": "double-build",
    "fh.fh_profile": "double-build",
    "double.build_double": "double-build",
    "double.check_double_symmetric": "double-build",
    "double.check_quasitriangular": "double-build",
    "io.save_spec": "double-build",
    "structure.verify_axioms": "spec-verify",
    "extension.verify_pair": "spec-verify",
    "extension.relative_system": "spec-verify",
    "io.load_spec": "spec-verify",
}


class _Record:
    __slots__ = ("calls", "seconds", "active")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0   # inclusive, outermost call only
        self.active = 0


class Tracer:
    """Install with ``install()``, run the pass, then ``uninstall()``."""

    def __init__(self):
        self.records: dict[str, _Record] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.inverse_hits = 0
        self.rref_cells = 0
        self.rref_max_cells = 0
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _record(self, key: str) -> _Record:
        return self.records.setdefault(key, _Record())

    def _counter(self, fn, key: str):
        rec = self._record(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.calls += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, fn, layer: str, key: str):
        rec = self._record(key)
        stack = self._stack
        self_s = self.self_s
        after = {"linalg.Matrix.rref": self._after_rref,
                 "structure.Element.inverse": self._after_inverse}.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            rec.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                rec.calls += 1
                rec.active -= 1
                if not rec.active:
                    rec.seconds += dt
            if after is not None:
                after(args, result)
            return result
        return span

    def _after_rref(self, args, result):
        m = args[0]
        cells = m.nrows * m.ncols
        self.rref_cells += cells
        self.rref_max_cells = max(self.rref_max_cells, cells)

    def _after_inverse(self, args, result):
        if result is not None:
            self.inverse_hits += 1

    # -- installation ---------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        import fhalg
        modules = {layer: importlib.import_module(f"fhalg.{layer}")
                   for layer in LAYERS}
        fields = importlib.import_module("fhalg.fields")
        namespaces = [fhalg, fields, *modules.values()]

        replace = {}   # id(original function) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isfunction(obj) and key not in UNWRAPPED:
                    replace[id(obj)] = self._span(obj, layer, key)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer, key)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._set(ns, name, replace[id(obj)])

        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for op in FIELD_OPS:
                self._set(cls, op, self._counter(vars(cls)[op],
                                                 f"fields.{op}"))

    def _wrap_methods(self, cls, layer: str, prefix: str) -> None:
        for name, obj in list(vars(cls).items()):
            key = f"{prefix}.{name}"
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or key in UNWRAPPED:
                continue
            wrapper = self._counter(obj, key) if key in COUNTED \
                else self._span(obj, layer, key)
            self._set(cls, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def calls(self, key: str) -> int:
        rec = self.records.get(key)
        return rec.calls if rec else 0

    def seconds(self, key: str) -> float:
        rec = self.records.get(key)
        return rec.seconds if rec else 0.0

    def missing(self, workload: str) -> list[str]:
        """Functions this workload must call that recorded no call."""
        return [key for key, home in REQUIRED.items()
                if home == workload and not self.calls(key)]

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        m = {f"{layer}.self_s": (self.self_s[layer], "s")
             for layer in LAYERS}
        inverse_calls = self.calls("structure.Element.inverse")
        m.update({
            "frobenius.symmetric_test_s":
                (self.seconds("frobenius.symmetric_test"), "s"),
            "structure.element_inverse_calls": (inverse_calls, "count"),
            "structure.element_inverse_hit_rate":
                (self.inverse_hits / inverse_calls if inverse_calls else 0.0,
                 "ratio"),
            "linalg.rref_s": (self.seconds("linalg.Matrix.rref"), "s"),
            "linalg.rref_calls": (self.calls("linalg.Matrix.rref"), "count"),
            "linalg.rref_max_cells": (self.rref_max_cells, "cells"),
            "linalg.rref_cells": (self.rref_cells, "cells"),
            "structure.verify_axioms_s":
                (self.seconds("structure.verify_axioms"), "s"),
            "structure.verify_axioms_calls":
                (self.calls("structure.verify_axioms"), "count"),
            "structure.tensor_square_mul_s":
                (self.seconds("structure.tensor_square_mul"), "s"),
            "structure.tensor_square_mul_calls":
                (self.calls("structure.tensor_square_mul"), "count"),
            "structure.mul_vec_calls":
                (self.calls("structure.HopfData.mul_vec"), "count"),
            "structure.convolution_inverse_s":
                (self.seconds("structure.convolution_inverse"), "s"),
            "structure.dual_hopf_calls":
                (self.calls("structure.dual_hopf"), "count"),
            "fields.mul_calls": (self.calls("fields.mul"), "count"),
            "fields.add_calls": (self.calls("fields.add"), "count"),
            "fields.inv_calls": (self.calls("fields.inv"), "count"),
            "fh.fh_profile_s": (self.seconds("fh.fh_profile"), "s"),
            "fh.fh_profile_calls": (self.calls("fh.fh_profile"), "count"),
            "double.build_double_s":
                (self.seconds("double.build_double"), "s"),
            "double.check_double_symmetric_s":
                (self.seconds("double.check_double_symmetric"), "s"),
            "double.check_quasitriangular_s":
                (self.seconds("double.check_quasitriangular"), "s"),
            "extension.verify_pair_s":
                (self.seconds("extension.verify_pair"), "s"),
            "extension.relative_system_s":
                (self.seconds("extension.relative_system"), "s"),
            "io.load_spec_s": (self.seconds("io.load_spec"), "s"),
            "io.save_spec_s": (self.seconds("io.save_spec"), "s"),
        })
        return m
