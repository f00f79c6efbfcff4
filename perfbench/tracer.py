"""Outside-in tracing of the tracelab layers.

Nothing in the program is edited: after ``import tracelab`` the public
entry points of each layer are replaced by wrappers.  A module-level
function is replaced in every ``tracelab`` module namespace that bound it
(``spectral`` and ``discrete`` import their ``linalg`` helpers by name);
a method is replaced on its class, together with any alias in the class
body (``__rmul__ = __mul__``).

``Tracer`` records a span (name, parent, start, end) per wrapped call in
flat integer arrays, computes self times at the end and writes the spans
out once.  ``Counter`` is the cheap companion for the scalar layer: it
counts Gaussian-rational operations and probes the bit size of what the
``linalg`` entry points return, without spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path).  Several targets may share a name;
# their spans then count as one layer operation.
SPAN_TARGETS = (
    ("reporting.parse", "tracelab.reporting", "parse_scenario"),
    ("reporting.run", "tracelab.reporting", "run"),
    ("reporting.emit", "tracelab.reporting", "emit"),
    ("groups.subgroup_build", "tracelab.groups", "finite_subgroup"),
    ("groups.subgroup_build", "tracelab.groups", "lattice_subgroup"),
    ("groups.subgroup_build", "tracelab.groups", "KernelSubgroup.__init__"),
    ("groups.subgroup_build", "tracelab.groups", "FiniteIndexSubgroup.__init__"),
    ("groups.coset_action", "tracelab.groups", "FiniteIndexSubgroup.coset_action"),
    ("discrete.twist_build", "tracelab.discrete", "Twist.__init__"),
    ("discrete.induce", "tracelab.discrete", "induce"),
    ("discrete.test_operator", "tracelab.discrete", "operator_of_test_function"),
    ("discrete.geometric", "tracelab.discrete", "geometric_side_discrete"),
    ("spectral.series", "tracelab.spectral", "composition_series_data"),
    ("spectral.find_submodule", "tracelab.spectral", "find_proper_submodule"),
    ("spectral.spin", "tracelab.spectral", "spin"),
    ("spectral.trace", "tracelab.spectral", "spectral_trace"),
    ("spectral.table", "tracelab.spectral", "multiplicity_table"),
    ("spectral.spectrum", "tracelab.spectral", "spectrum"),
    ("spectral.filtration", "tracelab.spectral", "random_pi_filtration_length"),
    ("sympy.factor", "sympy", "Poly.factor_list"),
    ("linalg.matmul", "tracelab.linalg", "Matrix.__matmul__"),
    ("linalg.det", "tracelab.linalg", "Matrix.det"),
    ("linalg.inverse", "tracelab.linalg", "Matrix.inverse"),
    ("linalg.charpoly", "tracelab.linalg", "charpoly"),
    ("linalg.nullspace", "tracelab.linalg", "nullspace"),
    ("linalg.eigen", "tracelab.linalg", "generalized_eigenspaces"),
    ("linalg.eigen", "tracelab.linalg", "generalized_eigenspace"),
    ("linalg.intertwiner", "tracelab.linalg", "intertwiner_space"),
    ("linalg.apply", "tracelab.linalg", "Matrix.apply"),
    ("linalg.span_add", "tracelab.linalg", "Span.add"),
    ("torus.verify", "tracelab.torus", "verify_torus"),
    ("torus.spectral_side", "tracelab.torus", "spectral_side_torus"),
    ("torus.geometric_side", "tracelab.torus", "geometric_side_torus"),
    ("torus.quad", "tracelab.torus", "quad"),
)

# calls counted without a span: their time stays with the caller
CALL_COUNT_TARGETS = (
    ("groups.coset_of", "tracelab.groups", "FiniteIndexSubgroup.coset_of"),
    ("spectral.is_isomorphic", "tracelab.spectral", "is_isomorphic"),
)

SCALAR_TARGETS = (
    ("gr_mul", "tracelab.scalars", "GaussianRational.__mul__"),
    ("gr_add", "tracelab.scalars", "GaussianRational.__add__"),
    ("gr_div", "tracelab.scalars", "GaussianRational.__truediv__"),
)

# the linalg entry points whose returned matrices the bit-size probe reads
BITS_TARGETS = tuple(t for t in SPAN_TARGETS if t[0].startswith("linalg."))

# Per-layer metrics: (name, unit, source).  Sources: ("self", span),
# ("calls", span), ("outer", span) counts calls not nested in a call of
# the same span, ("count", key) and ("max", key) read the probes,
# ("scalar", key) the counting pass, ("overhead",) traced/untraced run_s.
LAYER_METRICS = (
    ("tracelab.import_s", "s", ("self", "tracelab.import")),
    ("reporting.parse_s", "s", ("self", "reporting.parse")),
    ("reporting.parse_calls", "count", ("calls", "reporting.parse")),
    ("reporting.run_self_s", "s", ("self", "reporting.run")),
    ("reporting.emit_s", "s", ("self", "reporting.emit")),
    ("groups.subgroup_build_s", "s", ("self", "groups.subgroup_build")),
    ("groups.subgroup_builds", "count", ("outer", "groups.subgroup_build")),
    ("groups.cosets_built", "count", ("count", "groups.cosets_built")),
    ("groups.coset_action_calls", "count", ("calls", "groups.coset_action")),
    ("groups.coset_action_s", "s", ("self", "groups.coset_action")),
    ("groups.coset_of_calls", "count", ("count", "groups.coset_of")),
    ("discrete.twist_build_s", "s", ("self", "discrete.twist_build")),
    ("discrete.induce_self_s", "s", ("self", "discrete.induce")),
    ("discrete.induced_dim_max", "count", ("max", "discrete.induced_dim")),
    ("discrete.test_operator_s", "s", ("self", "discrete.test_operator")),
    ("discrete.geometric_s", "s", ("self", "discrete.geometric")),
    ("spectral.series_s", "s", ("self", "spectral.series")),
    ("spectral.series_calls", "count", ("calls", "spectral.series")),
    ("spectral.factors_total", "count", ("count", "spectral.factors")),
    ("spectral.find_submodule_s", "s", ("self", "spectral.find_submodule")),
    ("spectral.find_submodule_calls", "count", ("calls", "spectral.find_submodule")),
    ("spectral.spin_s", "s", ("self", "spectral.spin")),
    ("spectral.spin_calls", "count", ("calls", "spectral.spin")),
    ("spectral.is_isomorphic_calls", "count", ("count", "spectral.is_isomorphic")),
    ("spectral.trace_s", "s", ("self", "spectral.trace")),
    ("spectral.table_s", "s", ("self", "spectral.table")),
    ("spectral.spectrum_s", "s", ("self", "spectral.spectrum")),
    ("spectral.filtration_s", "s", ("self", "spectral.filtration")),
    ("spectral.filtration_calls", "count", ("calls", "spectral.filtration")),
    ("sympy.factor_calls", "count", ("outer", "sympy.factor")),
    ("sympy.factor_s", "s", ("self", "sympy.factor")),
    ("linalg.matmul_calls", "count", ("calls", "linalg.matmul")),
    ("linalg.matmul_s", "s", ("self", "linalg.matmul")),
    ("linalg.det_calls", "count", ("calls", "linalg.det")),
    ("linalg.det_s", "s", ("self", "linalg.det")),
    ("linalg.inverse_calls", "count", ("calls", "linalg.inverse")),
    ("linalg.inverse_s", "s", ("self", "linalg.inverse")),
    ("linalg.charpoly_calls", "count", ("calls", "linalg.charpoly")),
    ("linalg.charpoly_s", "s", ("self", "linalg.charpoly")),
    ("linalg.nullspace_calls", "count", ("calls", "linalg.nullspace")),
    ("linalg.nullspace_s", "s", ("self", "linalg.nullspace")),
    ("linalg.eigen_s", "s", ("self", "linalg.eigen")),
    ("linalg.intertwiner_s", "s", ("self", "linalg.intertwiner")),
    ("linalg.apply_calls", "count", ("calls", "linalg.apply")),
    ("linalg.apply_s", "s", ("self", "linalg.apply")),
    ("linalg.span_add_calls", "count", ("calls", "linalg.span_add")),
    ("linalg.span_add_s", "s", ("self", "linalg.span_add")),
    ("scalars.gr_mul_calls", "count", ("scalar", "gr_mul")),
    ("scalars.gr_add_calls", "count", ("scalar", "gr_add")),
    ("scalars.gr_div_calls", "count", ("scalar", "gr_div")),
    ("scalars.max_bits", "bits", ("scalar", "max_bits")),
    ("torus.verify_calls", "count", ("calls", "torus.verify")),
    ("torus.verify_s", "s", ("self", "torus.verify")),
    ("torus.spectral_side_s", "s", ("self", "torus.spectral_side")),
    ("torus.geometric_side_s", "s", ("self", "torus.geometric_side")),
    ("torus.quad_calls", "count", ("calls", "torus.quad")),
    ("torus.quad_s", "s", ("self", "torus.quad")),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
)


def _resolve(module_name, path):
    """(owner, attribute name, current value); AttributeError if absent."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "tracelab" or name.startswith("tracelab."))
    ]


def _count_wrapper(counts, key):
    """Wrapper factory that counts calls in ``counts[key]``."""
    counts.setdefault(key, 0)

    def make(original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    return make


class _Patcher:
    """Replaces targets by wrappers; remembers what could not be found."""

    def __init__(self):
        self.missing = []

    def patch(self, module_name, path, make_wrapper):
        try:
            owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}:{path}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            aliases = [k for k, v in vars(owner).items() if v is original] or [attr]
            for name in aliases:
                setattr(owner, name, wrapper)
            return
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # four int64 per span: name id, parent span index (-1 at the
        # root), start and end in monotonic nanoseconds
        self._spans = array("q")
        self._stack = []
        self.counts = {}
        self.maxima = {}
        self._patcher = _Patcher()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block (the ``import tracelab`` statement)."""
        spans, stack = self._spans, self._stack
        index = len(spans) >> 2
        spans.extend((self._name_id(name), stack[-1] if stack else -1, time.monotonic_ns(), 0))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            spans[4 * index + 3] = time.monotonic_ns()

    def _span_wrapper(self, name, on_call=None, on_return=None):
        name_id = self._name_id(name)
        spans, stack, clock = self._spans, self._stack, time.monotonic_ns

        def make(original):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                index = len(spans) >> 2
                spans.extend((name_id, stack[-1] if stack else -1, clock(), 0))
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[4 * index + 3] = clock()
                if on_return is not None:
                    on_return(args, result)
                return result

            return wrapper

        return make

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def install_spans(self):
        """Wrap every target; call once, after ``import tracelab``."""
        probes = {
            "tracelab.groups:FiniteIndexSubgroup.__init__": {
                "on_return": lambda args, _: self._add("groups.cosets_built", args[0].index),
            },
            "tracelab.discrete:induce": {
                "on_call": lambda args, kwargs: self._max(
                    "discrete.induced_dim",
                    _arg(args, kwargs, 0, "subgroup").index * _arg(args, kwargs, 1, "twist").dim,
                ),
            },
            "tracelab.spectral:composition_series_data": {
                "on_return": lambda _, result: self._add("spectral.factors", len(result.factors)),
            },
        }
        self.counts.setdefault("groups.cosets_built", 0)
        self.counts.setdefault("spectral.factors", 0)
        self.maxima.setdefault("discrete.induced_dim", 0)
        for name, module_name, path in SPAN_TARGETS:
            hooks = probes.get(f"{module_name}:{path}", {})
            self._patcher.patch(module_name, path, self._span_wrapper(name, **hooks))
        for key, module_name, path in CALL_COUNT_TARGETS:
            self._patcher.patch(module_name, path, _count_wrapper(self.counts, key))

    def summary(self, wall_ns):
        """Per span name: calls, outermost calls, total and self time,
        and calls by parent span name (which layer called it)."""
        spans = self._spans
        n = len(spans) >> 2
        child_ns = [0] * n
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0:
                child_ns[parent] += spans[4 * i + 3] - spans[4 * i + 2]
        by_name = {
            name: {"calls": 0, "outer_calls": 0, "total_ns": 0, "self_ns": 0, "by_parent": {}}
            for name in self.names
        }
        self_sum = 0
        for i in range(n):
            name_id, parent = spans[4 * i], spans[4 * i + 1]
            duration = spans[4 * i + 3] - spans[4 * i + 2]
            entry = by_name[self.names[name_id]]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns[i]
            self_sum += duration - child_ns[i]
            parent_name = self.names[spans[4 * parent]] if parent >= 0 else "<root>"
            if parent < 0 or spans[4 * parent] != name_id:
                entry["outer_calls"] += 1
            entry["by_parent"][parent_name] = entry["by_parent"].get(parent_name, 0) + 1
        return {
            "spans": n,
            "wall_ns": wall_ns,
            "self_sum_ns": self_sum,
            "by_name": by_name,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "missing_targets": list(self._patcher.missing),
        }

    def write_spans(self, path):
        spans = self._spans
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "parent", "start_ns", "end_ns"],
                    "names": self.names,
                    "spans": spans.tolist(),
                },
                handle,
            )


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _bits_of(value, depth=0):
    """Largest numerator/denominator bit length in a matrix, scalar or
    nested list of them; 0 for anything else."""
    if hasattr(value, "re") and hasattr(value, "im") and hasattr(value, "norm"):
        re, im = value.re, value.im
        return max(
            abs(re.numerator).bit_length(), re.denominator.bit_length(),
            abs(im.numerator).bit_length(), im.denominator.bit_length(),
        )
    if depth < 3 and hasattr(value, "entries") and hasattr(value, "backend"):
        return _bits_of(value.entries, depth + 1)
    if depth < 3 and isinstance(value, (list, tuple)):
        return max((_bits_of(x, depth + 1) for x in value), default=0)
    return 0


class Counter:
    """Gaussian-rational operation counts and the largest bit size."""

    def __init__(self):
        self.counts = {key: 0 for key, _, _ in SCALAR_TARGETS}
        self.max_bits = 0
        self._patcher = _Patcher()

    def install(self):
        def probing(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                bits = _bits_of(result)
                if bits > self.max_bits:
                    self.max_bits = bits
                return result

            return wrapper

        for key, module_name, path in SCALAR_TARGETS:
            self._patcher.patch(module_name, path, _count_wrapper(self.counts, key))
        for _, module_name, path in BITS_TARGETS:
            self._patcher.patch(module_name, path, probing)

    def summary(self):
        return {
            **self.counts,
            "max_bits": self.max_bits,
            "missing_targets": list(self._patcher.missing),
        }
