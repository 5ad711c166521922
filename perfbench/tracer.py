"""Per-layer tracing from outside the library.

The tracer wraps the public functions of each ``rbsinfty`` module after
import, in every module namespace that binds them (``from .signs import
inversion_sign`` in ``trees`` binds the same function a second time), and
records one span per call: name, start, end and parent span.  Spans stay in
memory and are written to a file when the run ends; ``layer_metrics`` turns
them into the per-layer metrics.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# (layer module, function or Class.method, reported stats)
LAYERS = (
    ("minimal_model", "diff_generator", ("calls", "distinct", "total_s")),
    ("minimal_model", "extend_derivation", ("calls", "self_s", "total_s")),
    ("minimal_model", "replace_vertex", ("calls", "self_s")),
    ("monomial_model", "diff_bar", ("calls", "distinct", "total_s")),
    ("monomial_model", "homotopy_H", ("calls", "self_s", "nonzero_ratio")),
    ("monomial_model", "is_effective", ("calls", "self_s")),
    ("monomial_model", "apply_homotopy", ("calls", "self_s")),
    ("monomial_model", "enumerate_monomials", ("yielded", "self_s")),
    ("trees", "compose_at", ("calls", "self_s")),
    ("trees", "graft_with_sign", ("calls", "self_s")),
    ("trees", "brace", ("calls", "self_s")),
    ("trees", "OperadElement.__add__", ("calls", "self_s")),
    ("signs", "inversion_sign", ("calls", "self_s")),
    ("signs", "koszul_chi", ("calls", "self_s")),
    ("signs", "shuffles", ("calls", "self_s")),
    ("graded", "compose_tensor", ("calls", "self_s")),
    ("graded", "brace_map", ("calls", "self_s")),
    ("graded", "MultiMap.__init__", ("calls", "self_s")),
    ("graded", "MultiMap.__add__", ("calls", "self_s")),
    ("graded", "tensor_product_multiply", ("calls", "self_s")),
    ("graded", "raise_indices", ("calls", "self_s")),
    ("linfty", "l_bracket", ("calls", "self_s", "total_s", "nonzero_ratio")),
    ("linfty", "mc_residual", ("calls", "total_s")),
    ("linfty", "twisted_differential", ("calls", "total_s")),
    ("linfty", "CochainElement.__add__", ("calls", "self_s")),
    ("residuals", "stasheff_residual", ("calls", "total_s")),
    ("residuals", "hrbs_residual_R", ("calls", "total_s")),
    ("residuals", "hrbs_residual_S", ("calls", "total_s")),
    ("residuals", "check_classical_rbs", ("calls", "total_s")),
    ("yang_baxter", "F_map", ("calls", "self_s")),
    ("yang_baxter", "check_classical_ybp", ("calls", "total_s")),
    ("yang_baxter", "check_infinity_ybp", ("calls", "total_s")),
    ("cli", "main", ("calls", "total_s")),
    # every from_json classmethod of the package, counted as one layer
    ("cli", "from_json", ("calls", "self_s")),
)
UNITS = {
    "calls": "count",
    "distinct": "count",
    "yielded": "count",
    "self_s": "s",
    "total_s": "s",
    "nonzero_ratio": "1",
}
# measured by the runner rather than by spans
RUN_METRICS = {"cli.report_bytes": "B", "trace.overhead_ratio": "1"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in table order."""
    units = {
        f"{layer}.{function}.{stat}": UNITS[stat]
        for layer, function, stats in LAYERS
        for stat in stats
    }
    units.update(RUN_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.distinct: dict[str, set] = {}
        self.nonzero: dict[str, int] = {}
        self.yielded: dict[str, int] = {}
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "rbsinfty" or name.startswith("rbsinfty.")
        }
        for layer, function, stats in LAYERS:
            name = f"{layer}.{function}"
            self.bindings[name] = []
            if function == "from_json":
                self._install_from_json(name, stats, modules)
                continue
            owner = modules.get(f"rbsinfty.{layer}")
            *path, attr = function.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, stats)
            # a method is bound on its class; a function in every module namespace
            targets = [owner] if path else modules.values()
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self.bindings[name].append(f"{target.__name__}.{key}")

    def _install_from_json(self, name, stats, modules) -> None:
        for module_name, module in modules.items():
            for cls in list(vars(module).values()):
                if not inspect.isclass(cls) or cls.__module__ != module_name:
                    continue
                method = vars(cls).get("from_json")
                if isinstance(method, classmethod):
                    wrapper = self._wrap(method.__func__, name, stats)
                    setattr(cls, "from_json", classmethod(wrapper))
                    self.bindings[name].append(f"{module_name}.{cls.__name__}.from_json")
        if not self.bindings[name]:
            self.missing.append(name)

    # -- spans ------------------------------------------------------------------------

    def _wrap(self, fn, name, stats):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self
        seen = self.distinct.setdefault(name, set()) if "distinct" in stats else None
        count_nonzero = "nonzero_ratio" in stats
        if count_nonzero:
            self.nonzero.setdefault(name, 0)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the body's work is attributed to it
            self.yielded.setdefault(name, 0)
            yielded = self.yielded

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    parent = tracer.current
                    idx = len(starts)
                    names.append(name_id)
                    parents.append(parent)
                    ends.append(0.0)
                    tracer.current = idx
                    starts.append(clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        tracer.current = parent
                    yielded[name] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(starts)
            names.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if seen is not None:
                seen.add(args[0])
            if count_nonzero and not result.is_zero():
                tracer.nonzero[name] += 1
            return result

        return traced

    def write(self, path: str) -> None:
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "distinct": {name: len(seen) for name, seen in self.distinct.items()},
            "nonzero": self.nonzero,
            "yielded": self.yielded,
            "bindings": self.bindings,
            "missing": self.missing,
        }
        blob = json.dumps(header).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(len(blob).to_bytes(8, "little"))
            handle.write(blob)
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)


def read_spans(path: str) -> tuple[dict, list[array]]:
    with open(path, "rb") as handle:
        size = int.from_bytes(handle.read(8), "little")
        header = json.loads(handle.read(size))
        columns = []
        for code in "iidd":
            column = array(code)
            column.fromfile(handle, header["spans"])
            columns.append(column)
    return header, columns


def layer_metrics(path: str) -> tuple[dict[str, float | None], dict]:
    """Per-layer metric values from a span file, and the file's header.

    A function the tracer could not find reads as ``None``, never as zero.
    """
    header, (span_name, span_parent, starts, ends) = read_spans(path)
    names = header["names"]
    count = len(names)
    calls = [0] * count
    self_s = [0.0] * count
    total_s = [0.0] * count
    cover_end = [float("-inf")] * count
    covered = [0.0] * len(starts)
    for idx in range(len(starts)):
        duration = ends[idx] - starts[idx]
        parent = span_parent[idx]
        if parent >= 0:
            covered[parent] += duration
    for idx in range(len(starts)):
        name_id = span_name[idx]
        duration = ends[idx] - starts[idx]
        calls[name_id] += 1
        self_s[name_id] += duration - covered[idx]
        # spans of one name nest or follow each other: count the outermost only
        if starts[idx] >= cover_end[name_id]:
            total_s[name_id] += duration
            cover_end[name_id] = ends[idx]
    by_name = {name: i for i, name in enumerate(names)}
    values: dict[str, float | None] = {}
    for layer, function, stats in LAYERS:
        name = f"{layer}.{function}"
        i = by_name.get(name)
        for stat in stats:
            key = f"{name}.{stat}"
            if i is None:
                values[key] = None
            elif stat == "calls":
                values[key] = calls[i]
            elif stat == "self_s":
                values[key] = self_s[i]
            elif stat == "total_s":
                values[key] = total_s[i]
            elif stat == "distinct":
                values[key] = header["distinct"][name]
            elif stat == "yielded":
                values[key] = header["yielded"][name]
            elif stat == "nonzero_ratio":
                values[key] = header["nonzero"][name] / calls[i] if calls[i] else 0.0
    return values, header
