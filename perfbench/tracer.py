"""Spans and counters recorded from outside the package, by rebinding names.

A function is replaced in its defining module and in every `hopfcyclic.*`
module that imported it by name (`from .linalg import rank` leaves a second
binding in `homology` that patching `linalg.rank` alone would miss); a method
is replaced on its class.  `Patches.restore` puts every original object back.

Two recorders use this:

- `SpanTracer` times calls.  Each wrapped call is a span; its self time is
  its duration minus the time its child spans cover.  Spans are folded into
  per-group totals as they close, so memory stays constant however many
  calls a pass makes.
- `WorkCounter` counts work (scalar operations, multiply-adds, eliminated
  rows, compiled nonzeros).  It runs in a pass of its own, so the cost of
  counting millions of scalar calls never lands in a span time.
"""

from __future__ import annotations

import functools
import sys
import time

# The public operator methods of the four cylinder classes.
_CYLINDER_OPS = {
    "AlgebraCylinder": ("tau_v", "face_v", "degen_v",
                        "tau_h", "face_h", "degen_h"),
    "AlgebraModuleForm": ("tau_v", "face_v", "degen_v",
                          "tau_h", "face_h", "degen_h"),
    "CoalgebraCocylinder": ("tau_v", "coface_v", "codegen_v",
                            "tau_h", "coface_h", "codegen_h"),
    "CoalgebraModuleForm": ("tau_v", "coface_v", "codegen_v",
                            "tau_h", "coface_h", "codegen_h"),
}

# Span groups: group -> (module, wrapped names).  "Class.method" names a
# method.  `linalg.solve` is left out: no command reaches it.
SPAN_GROUPS = {
    "cli": ("cli", ("main", "cmd_verify", "cmd_compute", "cmd_compare")),
    "io.load": ("io", ("load_document", "parse_document")),
    "hopf.check": ("hopf", ("check_hopf", "check_comodule_algebra",
                            "check_module_coalgebra", "check_algebra",
                            "check_coalgebra")),
    "crossed.build": ("crossed", ("crossed_product_algebra",
                                  "crossed_product_coalgebra",
                                  "cyclic_module_of_algebra",
                                  "cocyclic_module_of_coalgebra")),
    "crossed.check": ("crossed", ("check_cyclic_ops", "check_cocyclic_ops")),
    "tensor.compile": ("tensor", ("compile_operator",)),
    "cylinder.op": ("cylinder", tuple(
        "%s.%s" % (cls, m) for cls, ms in _CYLINDER_OPS.items() for m in ms)),
    "cylinder.other": ("cylinder", (
        "check_algebra_cylinder", "check_coalgebra_cocylinder",
        "AlgebraModuleForm.check", "CoalgebraModuleForm.check",
        "diagonal_cyclic", "diagonal_cocyclic",
        "phi_psi_algebra", "phi_psi_coalgebra",
        "coinvariant_cyclic_module", "coinvariant_cocyclic_module")),
    "linalg.matmul": ("linalg", ("SparseMatrix.__matmul__",)),
    "linalg.kron": ("linalg", ("SparseMatrix.kron",)),
    "linalg.eq": ("linalg", ("SparseMatrix.__eq__",)),
    "linalg.echelon": ("linalg", ("rank", "kernel", "image", "invert",
                                  "Subspace.__init__")),
    "linalg.reduce": ("linalg", ("Subspace.reduce", "Subspace.contains",
                                 "Subspace.coefficients")),
    "homology.mixed": ("homology", ("mixed_complex", "cochain_mixed_complex",
                                    "check_mixed_complex")),
    "homology.dims": ("homology", ("hochschild_dims", "cyclic_dims",
                                   "hopf_module_homology",
                                   "hopf_comodule_cohomology",
                                   "ez_compare_hochschild",
                                   "total_homology_dims")),
    "homology.total": ("homology", ("total_complex_algebra",
                                    "total_complex_coalgebra",
                                    "check_filtration")),
    "homology.pages": ("homology", ("spectral_pages",)),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "hopfcyclic" or name.startswith("hopfcyclic.")]


def _resolve(module, name):
    """(owner, attribute) for "func" or "Class.method" in hopfcyclic.<module>."""
    owner = sys.modules["hopfcyclic." + module]
    if "." in name:
        cls, name = name.split(".")
        owner = getattr(owner, cls)
    if name not in vars(owner):
        raise AttributeError("hopfcyclic.%s has no %s" % (module, name))
    return owner, name


class Patches:
    """Rebinds package functions everywhere they are bound; restores them."""

    def __init__(self):
        self.saved = []  # (object, attribute, original)

    def replace(self, module, name, make):
        owner, attr = _resolve(module, name)
        orig = vars(owner)[attr]
        new = make(orig)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(m, n) for m in _package_modules()
                       for n, v in list(vars(m).items()) if v is orig]
        for obj, n in targets:
            self.saved.append((obj, n, orig))
            setattr(obj, n, new)

    def restore(self):
        for obj, n, orig in reversed(self.saved):
            setattr(obj, n, orig)
        self.saved.clear()


class _Recorder:
    """Installs its wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self._patches = Patches()

    def install(self):
        raise NotImplementedError

    def restore(self):
        self._patches.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


class SpanTracer(_Recorder):
    """Per-group span statistics: calls, self seconds, and, per function,
    calls, so a test can see that every wrapped binding was reached."""

    def __init__(self):
        super().__init__()
        self.calls = {g: 0 for g in SPAN_GROUPS}
        self.self_s = {g: 0.0 for g in SPAN_GROUPS}
        self.fn_calls = {}
        self.op_compiles = 0  # compile spans whose parent is a cylinder.op
        self._stack = []

    def _make(self, group, key):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, fn_calls = self.calls, self.self_s, self.fn_calls
        fn_calls[key] = 0
        is_compile = group == "tensor.compile"

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else None
                if is_compile and parent is not None \
                        and parent[1] == "cylinder.op":
                    self.op_compiles += 1
                frame = [0.0, group]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    calls[group] += 1
                    fn_calls[key] += 1
                    self_s[group] += dur - frame[0]
                    if parent is not None:
                        parent[0] += dur
            return traced
        return make

    def install(self):
        for group, (module, names) in SPAN_GROUPS.items():
            for name in names:
                key = "%s.%s" % (module, name)
                self._patches.replace(module, name, self._make(group, key))


class WorkCounter(_Recorder):
    """Counts scalar operations and the work done by the linear-algebra
    kernels.  Multiply-adds are computed from operand sparsity."""

    def __init__(self):
        super().__init__()
        self.field_calls = {"mul": [0, 0], "add": [0, 0], "inv": [0, 0]}
        self.matmul_madds = 0
        self.matmul_out_nnz = 0
        self.echelon_rows = 0
        self.echelon_pivots = 0
        self.compile_nnz = 0

    def install(self):
        p = self._patches
        for op, tally in self.field_calls.items():
            p.replace("fields", "Field." + op, self._count_field(tally))
        p.replace("linalg", "SparseMatrix.__matmul__", self._count_matmul)
        p.replace("linalg", "_echelonize", self._count_echelon)
        p.replace("tensor", "compile_operator", self._count_compile)

    @staticmethod
    def _count_field(tally):
        # tally[1] counts calls over Q (Fraction scalars), tally[0] over F_p
        def make(fn):
            @functools.wraps(fn)
            def counted(self, *args):
                tally[self.p is None] += 1
                return fn(self, *args)
            return counted
        return make

    def _count_matmul(self, fn):
        @functools.wraps(fn)
        def counted(a, b):
            out = fn(a, b)
            self.matmul_madds += sum(len(a.column(k)) for k, _ in b.entries)
            self.matmul_out_nnz += out.nnz()
            return out
        return counted

    def _count_echelon(self, fn):
        @functools.wraps(fn)
        def counted(field, rows):
            rows = list(rows)
            pivots, reduced = fn(field, rows)
            self.echelon_rows += sum(1 for r in rows if r)
            self.echelon_pivots += len(pivots)
            return pivots, reduced
        return counted

    def _count_compile(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.compile_nnz += out.nnz()
            return out
        return counted
