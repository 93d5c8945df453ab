"""Per-layer spans and counters, installed from outside the engine.

The tracer wraps public functions of each invforms module and a few
methods on their classes.  Several modules bind functions by name
(`from invforms.pieces import piece_keys`), so every module attribute
that is the original function is replaced, not only the owner's.
Recursive helpers such as `pieces.monomials_of_degree` are never
wrapped: a span per recursive call would dominate the trace.

Spans are aggregated in memory as they close (calls, inclusive time,
self time) and read out by `take()` when a pass ends, so no I/O happens
while the engine runs.  Self time is a span's duration minus the time
covered by the spans it opened, tracked with a stack.
"""

import functools
import importlib
import sys
import time
from collections import Counter
from math import comb

# (module, attribute, span name); "Class.method" patches the class.
SPANS = [
    ("invforms.linalg", "Echelon.insert", "linalg.insert"),
    ("invforms.linalg", "Echelon.kernel_basis", "linalg.kernel_basis"),
    ("invforms.forms", "PolyForm.wedge", "forms.wedge"),
    ("invforms.forms", "PolyForm.__mul__", "forms.mul"),
    ("invforms.pieces", "piece_keys", "pieces.piece_keys"),
    ("invforms.pieces", "monomials_with_weight", "pieces.monomials_with_weight"),
    ("invforms.pieces", "form_to_vector", "pieces.form_to_vector"),
    ("invforms.pullback", "pullback_image", "pullback.image"),
    ("invforms.pullback", "surjectivity_check", "pullback.surjectivity"),
    ("invforms.invariants", "hilbert_basis", "invariants.hilbert_basis"),
    ("invforms.invariants", "invariant_form_generators", "invariants.form_generators"),
    ("invforms.invariants", "hilbert_series_of", "invariants.series_of"),
    ("invforms.euler", "horizontal_piece", "euler.horizontal_piece"),
    ("invforms.euler", "euler_homology", "euler.homology"),
    ("invforms.cones", "facet_normals", "cones.facet_normals"),
    ("invforms.canonical", "canonical_comparison", "canonical.comparison"),
    ("invforms.smoothness", "smoothness_verdict", "smoothness.verdict"),
    ("invforms.report", "run_analysis", "report.run_analysis"),
]

# Counted but not timed: cheap, frequent calls whose spans would cost
# more than the work they measure.
COUNTS = [
    ("invforms.euler", "euler_contract", "euler.contract"),
    ("invforms.cones", "hilbert_certificate_bound", "cones.certificate_bound"),
    ("invforms.pullback", "_wedge_candidates", "pullback.wedge_candidates"),
]


class Tracer:
    """Install with `with Tracer() as tr:`; read a pass with `tr.take()`."""

    def __init__(self):
        self._patches = []
        self._reset()

    def _reset(self):
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.pivots = 0
        self.max_ncols = 0
        self.wedge_candidates = 0
        self.wedges_kept = 0
        self._stack = []  # [name, start, time covered by child spans]
        self._active = Counter()

    def take(self):
        """Aggregates since the last call, as a dict; then start afresh."""
        out = {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "pivots": self.pivots,
            "max_ncols": self.max_ncols,
            "wedge_candidates": self.wedge_candidates,
            "wedges_kept": self.wedges_kept,
        }
        self._reset()
        return out

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span(name, _lookup(module, attr)))
        for module, attr, name in COUNTS:
            self._patch(module, attr, self._count(name, _lookup(module, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, wrapper in reversed(self._patches):
            if owner is None:
                _rebind(wrapper, wrapper.__wrapped__)
            else:
                setattr(owner, attr, wrapper.__wrapped__)
        self._patches.clear()

    def _patch(self, module, attr, wrapper):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, meth, wrapper)
            self._patches.append((cls, meth, wrapper))
        else:
            _rebind(wrapper.__wrapped__, wrapper)
            self._patches.append((None, attr, wrapper))

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        clock = time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            frame = [name, clock(), 0.0]
            stack.append(frame)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dur - frame[2]
                if not self._active[name]:  # outermost span of this name
                    self.inclusive[name] += dur
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_linalg_insert(self, args, pivot):
        if pivot is not None:
            self.pivots += 1
        self.max_ncols = max(self.max_ncols, args[0].ncols)

    def _after_pullback_image(self, args, image):
        self.wedges_kept += len(image.wedge_generators)

    def _after_pullback_wedge_candidates(self, args, _):
        _, basis, k = args
        self.wedge_candidates += comb(len(basis.generators), k)


def _rebind(old, new):
    """Point every engine module's binding of `old` at `new`.

    Removal rebinds by scanning again, which also catches modules first
    imported while the tracer was installed: they bound the wrapper.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "invforms" and not mod_name.startswith("invforms."):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _lookup(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _read(kind, span):
    return lambda t: t[kind].get(span, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


# Per-layer metrics of one traced pass: (name, unit, value from `take()`).
LAYER_METRICS = [
    ("linalg.insert_s", "s", _read("inclusive", "linalg.insert")),
    ("linalg.insert_calls", "count", _read("calls", "linalg.insert")),
    ("linalg.insert_pivot_ratio", "ratio",
     _ratio(lambda t: t["pivots"], _read("calls", "linalg.insert"))),
    ("linalg.max_ncols", "count", lambda t: t["max_ncols"]),
    ("linalg.kernel_basis_s", "s", _read("inclusive", "linalg.kernel_basis")),
    ("forms.wedge_s", "s", _read("inclusive", "forms.wedge")),
    ("forms.wedge_calls", "count", _read("calls", "forms.wedge")),
    ("forms.mul_s", "s", _read("inclusive", "forms.mul")),
    ("pullback.image_self_s", "s", _read("self", "pullback.image")),
    ("pullback.surjectivity_self_s", "s", _read("self", "pullback.surjectivity")),
    ("pullback.wedge_candidates", "count", lambda t: t["wedge_candidates"]),
    ("pullback.wedges_kept", "count", lambda t: t["wedges_kept"]),
    ("pullback.wedge_keep_ratio", "ratio",
     _ratio(lambda t: t["wedges_kept"], lambda t: t["wedge_candidates"])),
    ("pieces.piece_keys_s", "s", _read("inclusive", "pieces.piece_keys")),
    ("pieces.piece_keys_calls", "count", _read("calls", "pieces.piece_keys")),
    ("pieces.monomials_with_weight_s", "s",
     _read("inclusive", "pieces.monomials_with_weight")),
    ("pieces.monomials_with_weight_calls", "count",
     _read("calls", "pieces.monomials_with_weight")),
    ("pieces.form_to_vector_s", "s", _read("inclusive", "pieces.form_to_vector")),
    ("invariants.hilbert_basis_s", "s", _read("inclusive", "invariants.hilbert_basis")),
    ("invariants.hilbert_basis_calls", "count", _read("calls", "invariants.hilbert_basis")),
    ("invariants.form_generators_s", "s", _read("inclusive", "invariants.form_generators")),
    ("invariants.series_of_s", "s", _read("inclusive", "invariants.series_of")),
    ("euler.horizontal_piece_s", "s", _read("inclusive", "euler.horizontal_piece")),
    ("euler.horizontal_piece_calls", "count", _read("calls", "euler.horizontal_piece")),
    ("euler.homology_self_s", "s", _read("self", "euler.homology")),
    ("euler.contract_calls", "count", _read("calls", "euler.contract")),
    ("cones.facet_normals_s", "s", _read("inclusive", "cones.facet_normals")),
    ("cones.certificate_bound_calls", "count", _read("calls", "cones.certificate_bound")),
    ("canonical.comparison_self_s", "s", _read("self", "canonical.comparison")),
    ("smoothness.verdict_self_s", "s", _read("self", "smoothness.verdict")),
    ("report.run_analysis_s", "s", _read("inclusive", "report.run_analysis")),
]
