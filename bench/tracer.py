"""Outside-in tracer for the `ultraheat` package.

`install` wraps, from outside the program, every public function and every
public method (plus `__init__`) of the classes defined in each layer module,
and every entry of `cli.CHECK_REGISTRY`.  A module function is re-bound in
every `ultraheat.*` namespace that holds the same object, because
`from .form import energy_and_scale` binds a second name that a patch of
`form` alone would miss.

Each call becomes a span (name, start, end, parent, run id) kept in memory;
`write_spans` writes them when the run ends, and `summary` reduces them to
calls, inclusive time and self time (duration minus the time its child spans
cover) per span name and per layer.  Probes add counts that only the
arguments or results show, such as the eigen-solve work of a generator.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("space", "kernel", "form", "semigroup", "davies", "bounds", "cli", "reporting")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = Counter()
        self.hooked = set()
        self._generator_keys = set()

    def wrap(self, name: str, fn, probe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        self.hooked.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost calls only, so
        recursion is not counted twice) and self seconds; per layer: self
        seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict = {}
        layers = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            entry = names.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            own = (end - start) - child_time[i]
            entry["self_s"] += own
            layers[name.split(".", 1)[0]] += own
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                entry["incl_s"] += end - start
        return {"names": names, "layers": dict(layers), "counters": dict(self.counters),
                "hooked": sorted(self.hooked)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]))
                fh.write("\n")


# -- probes: counts taken from arguments and results ---------------------------


def _probe_generator(tracer, args, kwargs, result):
    gen = args[0]
    omega = None if gen.is_whole else tuple(int(i) for i in gen.omega)
    tracer._generator_keys.add((gen.rho, omega))
    tracer.counters["semigroup.generator_distinct"] = len(tracer._generator_keys)
    tracer.counters["semigroup.eigh_ops_computed"] += sum(len(b) ** 3 for b in gen.blocks)


def _probe_density(tracer, args, kwargs, result):
    tracer.counters["semigroup.density_bytes_computed"] += result.nbytes


def _probe_apply_grid(tracer, args, kwargs, result):
    tracer.counters["semigroup.apply_grid_cols"] += result.shape[1]


def _probe_energy_and_scale(tracer, args, kwargs, result):
    kernel = args[0] if args else kwargs["kernel"]
    tracer.counters["form.pair_terms_computed"] += kernel.n ** 2


def _probe_energy_batch(tracer, args, kwargs, result):
    tracer.counters["form.energy_batch_cols"] += result.shape[0]


def _probe_moser(tracer, args, kwargs, result):
    trace, _ = result
    tracer.counters["davies.moser_grid_points"] += len(trace.times)
    c_n = kwargs["c_n"] if "c_n" in kwargs else args[8]
    if trace.c_nash != c_n:
        tracer.counters["davies.moser_enlargements"] += 1


PROBES = {
    "semigroup.SpectralGenerator.__init__": _probe_generator,
    "semigroup.SpectralGenerator.density": _probe_density,
    "semigroup.SpectralGenerator.apply_grid": _probe_apply_grid,
    "form.energy_and_scale": _probe_energy_and_scale,
    "form.energy_batch": _probe_energy_batch,
    "davies.moser_iteration": _probe_moser,
}


def _public_methods(cls):
    for attr, member in vars(cls).items():
        if attr.startswith("_") and attr != "__init__":
            continue
        if isinstance(member, (classmethod, staticmethod)):
            yield attr, member.__func__, type(member)
        elif inspect.isfunction(member):
            yield attr, member, None


def install(tracer: Tracer) -> None:
    """Wrap the layer modules of the imported `ultraheat` package in place."""
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = importlib.import_module(f"ultraheat.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj, PROBES.get(name)))
            elif inspect.isclass(obj):
                for meth, fn, kind in list(_public_methods(obj)):
                    name = f"{layer}.{attr}.{meth}"
                    wrapper = tracer.wrap(name, fn, PROBES.get(name))
                    setattr(obj, meth, kind(wrapper) if kind else wrapper)
    for modname, module in list(sys.modules.items()):
        if modname != "ultraheat" and not modname.startswith("ultraheat."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    registry = importlib.import_module("ultraheat.cli").CHECK_REGISTRY
    for token, fn in list(registry.items()):
        registry[token] = tracer.wrap(f"cli.check.{token}", fn)
