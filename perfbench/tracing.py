"""Spans around divpair's public functions, installed from the benchmark's side.

`Tracer.install` replaces each public function of the layer modules, and
the curve and divisor methods listed in METHODS, with a wrapper that
records one span: a name, a start, an end, the span it was called from
and the operation it belongs to.  Spans are held in flat arrays and
written out once, at the end of the run.  `layer_metrics` turns them into
the per-layer figures named in PER_LAYER; a layer's self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("curve", "divisor", "grammar", "mvf", "pairing", "strings", "cli", "selftest")

# Public functions traced besides each module's __all__ (and, for cli,
# which has no __all__, its public functions).
EXTRA_FUNCTIONS = {"mvf": ("monodromy_certificate",), "selftest": ("run_property",)}
# Methods every kernel consumer and divisor construction goes through.
_CURVE_METHODS = ("kernel", "points_equal", "point_distance", "reduce_point")
METHODS = {
    "curve": {"Sphere": _CURVE_METHODS, "Torus": _CURVE_METHODS},
    "divisor": {"ComplexDivisor": ("__init__",), "MarkedCurve": ("__init__",)},
}

SELFTEST_PROPERTIES = (
    "curve.kernel_symmetry",
    "curve.torus_periodicity",
    "curve.green_divisor_harmonicity",
    "curve.sphere_invariance",
    "curve.green_divisor_linearity",
    "curve.theta1_quasi_periodicity",
    "divisor.group_laws",
    "divisor.scale_multiplicative",
    "divisor.degree_homomorphism",
    "divisor.class_additivity",
    "mvf.order_additivity",
    "mvf.sphere_witness_residues",
    "mvf.principal_subgroup",
    "mvf.multiplicator_homomorphism",
    "mvf.class_vs_principal",
    "pairing.formula_equivalence",
    "pairing.kernel_constant_independence",
    "pairing.weil_reciprocity_sphere",
    "pairing.weil_reciprocity_torus",
    "pairing.hermitian_properties",
    "pairing.integral_weil_product",
    "strings.unitary_invariance",
    "strings.factorization",
    "strings.momentum_divisor_degree",
)

# Every per-layer metric, in report order, with its unit.  Figures are per
# timed operation unless the name says setup or the unit is per call (us).
PER_LAYER = (
    ("curve.self_ms", "ms"),
    ("curve.kernel_calls", "count"),
    ("curve.kernel_us", "us"),
    ("curve.theta1_calls", "count"),
    ("curve.theta1_us", "us"),
    ("curve.theta1_log_derivative_calls", "count"),
    ("curve.theta1_log_derivative_us", "us"),
    ("curve.point_compare_calls", "count"),
    ("pairing.self_ms", "ms"),
    ("pairing.pairing_norm_ms", "ms"),
    ("pairing.hermitian_form_ms", "ms"),
    ("pairing.kernel_passes", "count"),
    ("strings.self_ms", "ms"),
    ("strings.string_pairing_factor_ms", "ms"),
    ("strings.kernel_calls", "count"),
    ("mvf.self_ms", "ms"),
    ("mvf.certificate_ms", "ms"),
    ("mvf.quadrature_nodes", "count"),
    ("divisor.self_ms", "ms"),
    ("divisor.constructions", "count"),
    ("divisor.setup_ms", "ms"),
    ("divisor.setup_constructions", "count"),
    ("grammar.self_ms", "ms"),
    ("grammar.parse_calls", "count"),
    ("grammar.format_calls", "count"),
    ("cli.cold_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
) + tuple((f"selftest.property_ms.{p}", "ms") for p in SELFTEST_PROPERTIES)

SETUP_OP = -1  # operation id of spans recorded while the pool is built


class Tracer:
    """Span recorder; spans of one operation share its `op` id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = SETUP_OP
        self._replaced: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, label=None):
        """`fn` recording a span named `name` (or `name:label(*args)`) per call."""
        fixed_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = fixed_id if label is None else self._name_id(f"{name}:{label(*args, **kwargs)}")
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            began = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.start[index] = began
                self._stack.pop()

        return traced

    def install(self, package_name: str = "divpair") -> None:
        """Wrap the public functions of every layer wherever the package refers to them."""
        package = importlib.import_module(package_name)
        modules = {layer: importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n in vars(module) if not n.startswith("_")]
            for attr in (*names, *EXTRA_FUNCTIONS.get(layer, ())):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                label = _property_label if attr == "run_property" else None
                wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn, label))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._replace(cls, method, original, self.wrap(f"{layer}.{cls_name}.{method}", original))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(module, attr, value, hit[1])

    def _replace(self, owner, attr: str, original, replacement) -> None:
        self._replaced.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


def _property_label(name, *args, **kwargs) -> str:
    return name


def layer_metrics(tracer: Tracer, meta: list[dict], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer figures from the spans of operations 0..len(meta)-1.

    `meta[k]` describes operation k: `n` (marks per divisor) for pairing
    passes, `support` for quadrature nodes per support point.  `extra`
    supplies the figures measured outside the spans (the cli timings).
    """
    a = tracer.arrays()
    names = [str(s) for s in a["names"]]
    name, parent, op = a["name"], a["parent"], a["op"]
    duration = a["end"] - a["start"]
    ops = len(meta)
    layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names] or [0], dtype=np.int64)
    layer = layer_of[name]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
    self_time = duration - child
    timed = (op >= 0) & (op < ops)
    setup = op == SETUP_OP

    # bit L of ancestors[i] is set when some enclosing span of span i is in layer L
    ancestors = np.zeros(len(name), dtype=np.int64)
    safe_parent = np.where(has_parent, parent, 0)
    while True:
        above = np.where(has_parent, ancestors[safe_parent] | (1 << layer[safe_parent]), 0)
        if np.array_equal(above, ancestors):
            break
        ancestors = above

    def named(predicate) -> np.ndarray:
        hits = np.array([predicate(s) for s in names] or [False])
        return hits[name]

    def inside(layer_name: str) -> np.ndarray:
        return (ancestors >> LAYERS.index(layer_name)) & 1 == 1

    def per_op(mask, values=None) -> float:
        mask = mask & timed
        total = mask.sum() if values is None else values[mask].sum()
        return float(total) / ops if ops else 0.0

    def mean_us(mask) -> float:
        mask = mask & timed
        return float(duration[mask].mean() * 1e6) if mask.any() else 0.0

    def mean_ratio(mask, bases) -> float:
        """Mean over operations with a nonzero base of (spans in mask during the op) / base."""
        counts = np.bincount(op[mask & timed], minlength=ops)[:ops]
        ratios = [c / b for c, b in zip(counts, bases) if b]
        return float(np.mean(ratios)) if ratios else 0.0

    kernel = named(lambda s: s.startswith("curve.") and s.endswith(".kernel"))
    theta = named(lambda s: s == "curve.theta1")
    log_derivative = named(lambda s: s == "curve.theta1_log_derivative")
    certificate = named(lambda s: s == "mvf.monodromy_certificate")
    constructions = named(lambda s: s == "divisor.ComplexDivisor.__init__")
    certificates = np.bincount(op[certificate & timed], minlength=ops)[:ops]
    marks_squared = [m.get("n", 0) ** 2 for m in meta]
    support_nodes = [m.get("support", 0) * c for m, c in zip(meta, certificates)]

    out = {f"{lay}.self_ms": per_op(layer == LAYERS.index(lay), self_time) * 1e3
           for lay in ("curve", "pairing", "strings", "mvf", "divisor", "grammar")}
    out.update({
        "curve.kernel_calls": per_op(kernel),
        "curve.kernel_us": mean_us(kernel),
        "curve.theta1_calls": per_op(theta),
        "curve.theta1_us": mean_us(theta),
        "curve.theta1_log_derivative_calls": per_op(log_derivative),
        "curve.theta1_log_derivative_us": mean_us(log_derivative),
        "curve.point_compare_calls": per_op(
            named(lambda s: s.endswith(".points_equal") or s.endswith(".point_distance"))
        ),
        "pairing.pairing_norm_ms": per_op(named(lambda s: s == "pairing.pairing_norm"), duration) * 1e3,
        "pairing.hermitian_form_ms": per_op(named(lambda s: s == "pairing.hermitian_form"), duration) * 1e3,
        "pairing.kernel_passes": mean_ratio(kernel & inside("pairing"), marks_squared),
        "strings.string_pairing_factor_ms": per_op(
            named(lambda s: s == "strings.string_pairing_factor"), duration
        ) * 1e3,
        "strings.kernel_calls": per_op(kernel & inside("strings")),
        "mvf.certificate_ms": per_op(certificate, duration) * 1e3,
        "mvf.quadrature_nodes": mean_ratio(log_derivative & inside("mvf"), support_nodes),
        "divisor.constructions": per_op(constructions),
        "divisor.setup_ms": float(self_time[setup & (layer == LAYERS.index("divisor"))].sum() * 1e3),
        "divisor.setup_constructions": float((constructions & setup).sum()),
        "grammar.parse_calls": per_op(named(lambda s: s.startswith("grammar.parse_"))),
        "grammar.format_calls": per_op(named(lambda s: s.startswith("grammar.format_"))),
    })
    for prop in SELFTEST_PROPERTIES:
        spans = named(lambda s, p=prop: s == f"selftest.run_property:{p}")
        out[f"selftest.property_ms.{prop}"] = per_op(spans, duration) * 1e3
    for key in ("cli.cold_start_ms", "cli.import_ms", "cli.main_ms"):
        out[key] = float(extra.get(key, 0.0))
    return {key: out[key] for key, _ in PER_LAYER}

