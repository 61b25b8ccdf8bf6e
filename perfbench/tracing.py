"""Tracing of semidecay from outside the program.

`Tracer.install()` replaces the public functions listed in `SPANS` with
wrappers that record one span per call (name, start, end, parent), and the
numpy/scipy kernel entry points listed in `KERNELS` with wrappers that only
count.  A function is replaced wherever a semidecay module holds it by name,
so calls through `from .spectral import resolvent_matrix` are seen too.
`Tracer.uninstall()` puts every original back and checks that none of the
wrappers is left behind.

Spans stay in memory until `write_spans()`.  For each span name the summary
gives the inclusive time (outermost calls only, so recursion is not counted
twice) as `<name>_s`, and the self time (span minus child spans) as
`<name>_self_s` where the function calls another traced function.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

# (module under semidecay, attribute path, span name, export self time)
SPANS = [
    ("spaces", "operator_norm", "spaces.operator_norm", False),
    ("spectral", "resolvent_matrix", "spectral.resolvent_matrix", False),
    ("spectral", "eigen_decompose", "spectral.eigen_decompose", False),
    ("spectral", "spectral_projector", "spectral.spectral_projector", True),
    ("semigroup", "matrix_exponential", "semigroup.matrix_exponential", False),
    ("semigroup", "semigroup_norms", "semigroup.semigroup_norms", True),
    ("semigroup", "step_trajectory", "semigroup.step_trajectory", False),
    ("hypotheses", "check_h1", "hypotheses.check_h1", True),
    ("hypotheses", "check_h2", "hypotheses.check_h2", False),
    ("hypotheses", "check_h3", "hypotheses.check_h3", True),
    ("hypotheses", "check_h4", "hypotheses.check_h4", True),
    ("factorization", "verify_factorization", "factorization.verify_factorization", True),
    ("factorization", "enlargement_bound_chain", "factorization.enlargement_bound_chain", True),
    ("equivalence", "verify_decay_from_resolvent", "equivalence.verify_decay_from_resolvent", True),
    ("equivalence", "verify_resolvent_from_decay", "equivalence.verify_resolvent_from_decay", True),
    ("instances", "generate_instance", "instances.generate_instance", False),
    ("fokker_planck", "build_problem", "fokker_planck.build_problem", False),
    ("fokker_planck", "spectral_gap_H", "fokker_planck.spectral_gap_H", False),
    ("fokker_planck", "find_decomposition", "fokker_planck.find_decomposition", False),
    ("fokker_planck", "decay_experiment", "fokker_planck.decay_experiment", True),
    ("fokker_planck", "resolvent_scan_fp", "fokker_planck.resolvent_scan_fp", True),
    ("reports", "RunReport.write", "io.write", False),
    ("matio", "write_csv", "io.write", False),
]
CALL_COUNTS = ["spectral.resolvent_matrix", "spaces.operator_norm",
               "semigroup.matrix_exponential"]

# (namespace, attribute, counter).  Entry points the program does not call
# today are counted too, so that a change moving to one of them (a batched
# np.linalg.solve, say) is still counted by an unchanged benchmark.
KERNELS = [
    (np.linalg, "svd", "svd"), (np.linalg, "svdvals", "svd"),
    (np.linalg, "norm", "svd"), (np.linalg, "matrix_norm", "svd"),
    (scipy.linalg, "svd", "svd"), (scipy.linalg, "svdvals", "svd"),
    (scipy.linalg, "lu_factor", "lu"), (scipy.linalg, "lu", "lu"),
    (scipy.linalg, "solve", "lu"), (scipy.linalg, "inv", "lu"),
    (np.linalg, "solve", "lu"), (np.linalg, "inv", "lu"),
    (scipy.linalg, "expm", "expm"),
    (np.linalg, "eig", "eig"), (np.linalg, "eigvals", "eig"),
    (scipy.linalg, "eig", "eig"), (scipy.linalg, "eigvals", "eig"),
    (scipy.linalg, "schur", "eig"),
    (scipy.sparse.linalg, "splu", "splu"),
    (scipy.sparse.linalg, "eigsh", "eigsh"),
]
KERNEL_COUNTERS = ["svd", "lu", "expm", "eig", "eigsh", "splu"]

_MARK = "__perfbench_wrapped__"


def _shape(x):
    shape = getattr(x, "shape", None)
    return tuple(shape) if shape is not None else np.shape(x)


def _is_complex(x):
    dtype = getattr(x, "dtype", None)
    return dtype is not None and dtype.kind == "c"


def _svd_flops(m, n, vectors, complex_):
    """Golub & Van Loan operation counts for the Golub-Reinsch SVD."""
    m, n = max(m, n), min(m, n)
    if vectors:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    return flops * (4 if complex_ else 1)


def _matrices(shape, axes=(-2, -1)):
    m, n = shape[axes[0]], shape[axes[1]]
    return math.prod(shape) // max(m * n, 1), m, n


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []          # (name id, start, end, parent span index)
        self._stack = []         # [span index, name id, parent, start, child time]
        self._active = {}        # name id -> depth, for outermost-only totals
        self.inclusive = {}
        self.self_time = {}
        self.calls = {}
        self.covered = 0.0       # time inside top-level spans
        self.kernel_calls = {k: 0 for k in KERNEL_COUNTERS}
        self.svd_flops = 0.0
        self.line_evals = 0
        self.uncertified = 0
        self.candidates = 0
        self.resolvent_keys = set()
        self._patched = []       # (owner, attribute, original)
        self.missing = []

    # -- spans ---------------------------------------------------------
    def _enter(self, nid):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._active[nid] = self._active.get(nid, 0) + 1
        self._stack.append([index, nid, parent, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        index, nid, parent, start, child = self._stack.pop()
        dur = end - start
        self.spans[index] = (nid, start, end, parent)
        self._active[nid] -= 1
        name = self.names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if self._active[nid] == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][4] += dur
        else:
            self.covered += dur

    def _span_wrapper(self, fn, name):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = {"spectral.resolvent_matrix": self._on_resolvent}.get(name)
        after = {"hypotheses.check_h2": self._after_h2,
                 "fokker_planck.find_decomposition": self._after_search}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _on_resolvent(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        matrix = np.ascontiguousarray(getattr(matrix, "entries", matrix))
        xi = complex(args[1] if len(args) > 1 else kwargs["xi"])
        digest = hashlib.blake2b(matrix.tobytes(), digest_size=16)
        digest.update(repr((matrix.shape, matrix.dtype.str)).encode())
        self.resolvent_keys.add((digest.digest(), xi))

    def _after_h2(self, report):
        self.uncertified += len(report.uncertified_segments)

    def _after_search(self, result):
        self.candidates += len(result.frontier)

    # -- kernel counters -----------------------------------------------
    def _add_svd(self, x, shape, axes, vectors):
        count, m, n = _matrices(shape, axes)
        self.kernel_calls["svd"] += count
        self.svd_flops += count * _svd_flops(m, n, vectors, _is_complex(x))

    def _kernel_wrapper(self, fn, attr, counter):
        def svd(args, kwargs):
            x = args[0] if args else kwargs.get("a")
            shape = _shape(x)
            if len(shape) >= 2:
                vectors = attr == "svd" and bool(
                    args[2] if len(args) > 2 else kwargs.get("compute_uv", True))
                self._add_svd(x, shape, (-2, -1), vectors)

        def norm(args, kwargs):
            # only the spectral norm of a matrix (ord 2 or -2) is an SVD
            ord_ = args[1] if len(args) > 1 else kwargs.get(
                "ord", "fro" if attr == "matrix_norm" else None)
            if not isinstance(ord_, int) or ord_ not in (2, -2):
                return
            x = args[0] if args else kwargs.get("x")
            shape = _shape(x)
            axis = (-2, -1) if attr == "matrix_norm" else (
                args[2] if len(args) > 2 else kwargs.get("axis"))
            if axis is None and len(shape) == 2:
                axis = (0, 1)
            if isinstance(axis, tuple) and len(axis) == 2:
                self._add_svd(x, shape, axis, False)

        def matrices(args, kwargs):
            shape = _shape(args[0]) if args else ()
            self.kernel_calls[counter] += _matrices(shape)[0] if len(shape) >= 2 else 1

        def calls(args, kwargs):
            self.kernel_calls[counter] += 1

        if counter == "svd":
            note = norm if attr in ("norm", "matrix_norm") else svd
        else:
            note = matrices if counter in ("lu", "expm", "eig") else calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            note(args, kwargs)
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def _count_line_eval(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.line_evals += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @staticmethod
    def _program_modules():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "semidecay"
                                        or name.startswith("semidecay."))]

    def install(self):
        modules = self._program_modules()
        by_name = {mod.__name__.split(".")[-1]: mod for mod in modules}
        for module, path, name, _ in SPANS:
            mod = by_name.get(module)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._span_wrapper(original, name)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)
        hyp = by_name.get("hypotheses")
        if hyp is not None and hasattr(hyp, "_line_norm"):
            self._patch(hyp, "_line_norm", self._count_line_eval(hyp._line_norm))
        else:
            self.missing.append("hypotheses._line_norm")
        for namespace, attr, counter in KERNELS:
            original = getattr(namespace, attr, None)
            if original is None:
                continue
            wrapper = self._kernel_wrapper(original, attr, counter)
            self._patch(namespace, attr, wrapper)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)

    def uninstall(self):
        """Restore every original; raise if a wrapper survives anywhere."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        owners = self._program_modules() + [np.linalg, scipy.linalg,
                                            scipy.sparse.linalg]
        owners += [vars(mod).get("RunReport") for mod in owners]
        left = [f"{getattr(owner, '__name__', owner)}.{key}"
                for owner in owners if owner is not None
                for key, value in vars(owner).items()
                if getattr(value, _MARK, False)]
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    # -- results -------------------------------------------------------
    def counts(self) -> dict:
        """The deterministic part of the trace: call and kernel counts."""
        out = {f"{name}_calls": self.calls.get(name, 0) for name in CALL_COUNTS}
        out["spectral.resolvent_distinct_pairs"] = len(self.resolvent_keys)
        out["hypotheses.h2_line_evals"] = self.line_evals
        out["hypotheses.h2_uncertified_segments"] = self.uncertified
        out["fokker_planck.search_candidates"] = self.candidates
        for counter in KERNEL_COUNTERS:
            out[f"kernel.{counter}_calls"] = self.kernel_calls[counter]
        out["kernel.svd_gflop"] = self.svd_flops / 1e9
        return out

    def times(self) -> dict:
        out = {}
        for _, _, name, export_self in SPANS:
            out[f"{name}_s"] = self.inclusive.get(name, 0.0)
            if export_self:
                out[f"{name}_self_s"] = self.self_time.get(name, 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
