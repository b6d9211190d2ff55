"""Outside-in layer tracer for the benchmark.

The tracer wraps public functions of the ``cpstar`` package from outside:
each wrapper replaces the original in every ``cpstar`` module namespace
(and module-level dict) that binds it, because several modules import
functions by name.  Methods are replaced on their class.  Nothing inside
``src/`` changes, and :meth:`Tracer.uninstall` puts every original back.

Every wrapped call records one span (name, start, end, parent span, op id)
in flat arrays that stay in memory until the run ends.  A span's self time
is its duration minus the durations of its direct child spans.  Size
counters add a measure of the call's input or output, and two count-only
``__init__`` wrappers count object creations.  Inside :meth:`Tracer.pause`
the wrappers only call through, so the benchmark's own checks leave no span
and no count.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (layer, module, attribute path) of every function that gets a span.
SPAN_TARGETS = [
    ("symbols", "cpstar.symbols", "wick_contraction"),
    ("symbols", "cpstar.symbols", "embed"),
    ("symbols", "cpstar.symbols", "reduce_degree"),
    ("symbols", "cpstar.symbols", "reduce_to_min"),
    ("symbols", "cpstar.symbols", "operator_product"),
    ("symbols", "cpstar.symbols", "pointwise_mul"),
    ("linalg", "cpstar.linalg", "linear_solve"),
    ("linalg", "cpstar.linalg", "matrix_rank"),
    ("star", "cpstar.star", "star_elements"),
    ("star", "cpstar.star", "star_symbols"),
    ("star", "cpstar.star", "StarProductTerms.nrf_map"),
    ("star", "cpstar.star", "StarElement.minimized"),
    ("star", "cpstar.star", "StarElement.expand"),
    ("star", "cpstar.star", "StarElement.relevel"),
    ("star", "cpstar.star", "extract_structure"),
    ("quotient", "cpstar.quotient", "substitute"),
    ("quotient", "cpstar.quotient", "quotient_map"),
    ("quotient", "cpstar.quotient", "ideal_factorize"),
    ("quotient", "cpstar.quotient", "representative_element"),
    ("models.disk", "cpstar.models.disk", "disk_product"),
    ("models.torus", "cpstar.models.torus", "moyal_product"),
    ("models.torus", "cpstar.models.torus", "torus_quotient"),
    ("expr", "cpstar.expr", "parse"),
    ("expr", "cpstar.expr", "evaluate"),
    ("serialize", "cpstar.serialize", "canonical_dumps"),
    ("checks", "cpstar.checks", "run_suite"),
    ("cli", "cpstar.cli", "main"),
]

# Several originals share one span name.
ROLLUP_TARGETS = {
    "serialize.from_json": [
        ("cpstar.serialize", name)
        for name in (
            "symbol_from_json",
            "matrix_from_json",
            "element_from_json",
            "series_from_json",
            "quotient_operator_from_json",
            "fourier_from_json",
            "disk_from_json",
        )
    ],
    "nupoly.NuRationalFunction.arith": [
        ("cpstar.nupoly", f"NuRationalFunction.{name}")
        for name in ("__add__", "__sub__", "__mul__", "__truediv__")
    ],
}


def _entries_out(args, result) -> int:
    return len(result.entries)


def _cells(args, result) -> int:
    matrix = args[0]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _bytes_out(args, result) -> int:
    return len(result.encode("utf-8"))


# span name -> (counter name, size function)
SIZE_COUNTERS = {
    "symbols.wick_contraction": ("symbols.wick_contraction.entries_out", _entries_out),
    "symbols.embed": ("symbols.embed.entries_out", _entries_out),
    "linalg.linear_solve": ("linalg.linear_solve.cells", _cells),
    "linalg.matrix_rank": ("linalg.matrix_rank.cells", _cells),
    "serialize.canonical_dumps": ("serialize.canonical_dumps.bytes_out", _bytes_out),
}

# counter name -> (module, class) whose ``__init__`` is counted
CREATION_COUNTERS = {
    "scalars.GaussRational.created": ("cpstar.scalars", "GaussRational"),
    "nupoly.NuRationalFunction.created": ("cpstar.nupoly", "NuRationalFunction"),
}


def layer_of(span_name: str) -> str:
    if span_name.startswith("models."):
        return ".".join(span_name.split(".")[:2])
    return span_name.split(".")[0]


def span_names() -> list[str]:
    names = [f"{layer}.{path}" for layer, _, path in SPAN_TARGETS]
    return names + list(ROLLUP_TARGETS)


def layers() -> list[str]:
    return list(dict.fromkeys(layer_of(name) for name in span_names()))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units: dict[str, str] = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for counter, _ in SIZE_COUNTERS.values():
        units[counter] = "B" if counter.endswith("bytes_out") else "count"
    for counter in CREATION_COUNTERS:
        units[counter] = "count"
    for layer in layers():
        units[f"{layer}.self_s"] = "s"
    units["bench.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _resolve(module_name: str, path: str):
    """(owner, original) of a module function or of a method on its class."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if isinstance(owner, type):
        return owner, owner.__dict__[attr]
    return owner, getattr(owner, attr)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.paused = False
        self.sizes: dict[str, int] = {name: 0 for name, _ in SIZE_COUNTERS.values()}
        self.created: dict[str, list[int]] = {name: [0] for name in CREATION_COUNTERS}
        self._patches: list[tuple[object, object, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        size = SIZE_COUNTERS.get(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        sizes = self.sizes

        def wrapper(*args, **kwargs):
            if self.paused:
                return func(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if size is not None:
                sizes[size[0]] += size[1](args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_wrapper(self, cell: list[int], init):
        tracer = self

        def __init__(self, *args, **kwargs):
            if not tracer.paused:
                cell[0] += 1
            init(self, *args, **kwargs)

        return __init__

    @contextmanager
    def pause(self):
        """Record nothing inside this context."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation ----------------------------------------------------

    def _replace(self, owner, original, wrapper) -> None:
        """Bind ``wrapper`` wherever ``original`` is bound under ``cpstar``."""
        if isinstance(owner, type):
            for attr, value in list(owner.__dict__.items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("cpstar"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, attr, original))
                    namespace[attr] = wrapper
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = wrapper

    def install(self) -> None:
        for layer, module_name, path in SPAN_TARGETS:
            owner, original = _resolve(module_name, path)
            self._replace(owner, original, self._span_wrapper(f"{layer}.{path}", original))
        for name, targets in ROLLUP_TARGETS.items():
            for module_name, path in targets:
                owner, original = _resolve(module_name, path)
                self._replace(owner, original, self._span_wrapper(name, original))
        for name, (module_name, cls_name) in CREATION_COUNTERS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__["__init__"]
            self._replace(cls, original, self._count_wrapper(self.created[name], original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, type):
                setattr(owner, key, original)
            else:
                owner[key] = original

    # -- results ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Call counts, size counters and creation counts recorded so far."""
        out = {f"{name}.calls": 0 for name in span_names()}
        for name_id in self.span_name:
            out[f"{self.names[name_id]}.calls"] += 1
        out.update(self.sizes)
        out.update({name: cell[0] for name, cell in self.created.items()})
        return out

    def self_seconds(self) -> tuple[dict[str, float], float]:
        """Self time per span name, and the summed duration of root spans."""
        count = len(self.span_start)
        child = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        by_name = {name: 0.0 for name in span_names()}
        roots = 0.0
        for index in range(count):
            duration = ends[index] - starts[index]
            by_name[self.names[self.span_name[index]]] += duration - child[index]
            if parents[index] < 0:
                roots += duration
        return by_name, roots

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tparent\top\tstart_s\tend_s\n")
            for index in range(len(self.span_start)):
                handle.write(
                    f"{index}\t{self.names[self.span_name[index]]}\t{self.span_parent[index]}"
                    f"\t{self.span_op[index]}\t{self.span_start[index]:.9f}\t{self.span_end[index]:.9f}\n"
                )
