"""Spans around the calls into each layer of ``foliations``, recorded from outside.

The tracer wraps each layer's entry points: the functions and the public
methods of the classes that another module of the package imports.  A
``from .x import y`` binds its own copy of ``y``, so the wrapper replaces
the name in every module that imports it, and calls inside the defining
module stay unwrapped.  A few functions whose results the layer metrics
read are also replaced in their own module, so that calls from inside it
are counted too.

``rings`` is not wrapped: its per-term arithmetic runs millions of times a
pass.  It is measured through the sizes and coefficients of the results
that the other layers return.

A span is (name, start, end, parent).  A layer's self time is the time of
its spans less the time of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli", "formfile", "forms", "classify", "determine", "saturation",
    "resolutions", "ext", "hilbert", "groebner", "modules", "linalg",
)

# Entry points wrapped in their own module too, because layer metrics read them.
SELF_BOUND = {
    "groebner": ("reduced_groebner_basis",),
    "modules": ("module_groebner", "syzygy_generators"),
    "saturation": ("saturate",),
    "resolutions": ("free_resolution",),
    "determine": ("integrability_system",),
}


def _coeff_bits(polys) -> int:
    best = 0
    for p in polys:
        for _, c in p.terms:
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _ideal_key(ring, gens) -> tuple:
    return (ring, frozenset(g.terms for g in gens))


class PassStats:
    """Counters of one pass; the tracer starts a fresh one per pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.inputs: dict[str, set] = defaultdict(set)
        self.input_calls: dict[str, int] = defaultdict(int)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in (
            "groebner.basis_len", "modules.basis_len", "modules.syzygies_out",
            "groebner.coeff_bits_max", "modules.coeff_bits_max",
            "resolutions.betti_sum", "linalg.cells", "determine.system_len",
        ):
            out[name] = self.values[name]
        for layer in ("groebner", "saturation"):
            calls = self.input_calls[layer]
            out[f"{layer}.distinct_ratio"] = len(self.inputs[layer]) / calls if calls else 1.0
        return out


class Tracer:
    def __init__(self) -> None:
        self.stats = PassStats()
        self.spans: list[list] | None = None  # recorded while not None
        self.names: list[str] = []
        self._stack: list[list] = []  # [span index or None, child seconds]
        self._undo: list[tuple[object, str, object]] = []
        self.wrapped: dict[tuple[str, str], object] = {}

    # -- observation of results ------------------------------------------------

    def _observe(self, layer: str, name: str, args: tuple, result) -> None:
        s = self.stats
        if layer == "groebner" and name == "reduced_groebner_basis":
            s.values["groebner.basis_len"] += len(result)
            s.values["groebner.coeff_bits_max"] = max(
                s.values["groebner.coeff_bits_max"], _coeff_bits(result)
            )
            s.inputs["groebner"].add(_ideal_key(args[1], args[0]))
            s.input_calls["groebner"] += 1
        elif layer == "modules" and name in ("module_groebner", "syzygy_generators"):
            key = "modules.basis_len" if name == "module_groebner" else "modules.syzygies_out"
            s.values[key] += len(result)
            bits = _coeff_bits(p for v in result for p in v)
            s.values["modules.coeff_bits_max"] = max(s.values["modules.coeff_bits_max"], bits)
        elif layer == "saturation" and name == "saturate":
            I = args[0]
            J = args[1] if len(args) > 1 else None
            s.inputs["saturation"].add(
                (_ideal_key(I.ring, I.generators), None if J is None else _ideal_key(J.ring, J.generators))
            )
            s.input_calls["saturation"] += 1
        elif layer == "resolutions" and name == "free_resolution":
            s.values["resolutions.betti_sum"] += sum(result.betti().values())
        elif layer == "determine" and name == "integrability_system":
            s.values["determine.system_len"] += len(result)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        if key in self.wrapped:
            return self.wrapped[key]
        label = len(self.names)
        self.names.append(f"{layer}.{name}")
        stack = self._stack
        observed = name in SELF_BOUND.get(layer, ())
        is_linalg = layer == "linalg"

        def wrapper(*args, **kwargs):
            spans = self.spans
            index = None
            if spans is not None:
                index = len(spans)
                spans.append([label, 0.0, 0.0, stack[-1][0] if stack else None])
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats = self.stats
                stats.calls[layer] += 1
                stats.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if index is not None:
                    spans[index][1] = start
                    spans[index][2] = end
            if observed:
                self._observe(layer, name, args, result)
            elif is_linalg and args:
                self.stats.values["linalg.cells"] += sum(len(row) for row in args[0])
            return result

        self.wrapped[key] = wrapper
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point of every layer, and ``cli.main``."""
        mods = {name: importlib.import_module(f"foliations.{name}") for name in LAYERS}
        by_object: dict[int, tuple[str, str]] = {}
        for layer in LAYERS:
            for attr, value in vars(mods[layer]).items():
                if getattr(value, "__module__", None) == mods[layer].__name__:
                    by_object[id(value)] = (layer, attr)
        classes: set[tuple[str, str]] = set()
        for importer, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                owner = by_object.get(id(value))
                if owner is None or owner[0] == importer:
                    continue
                if inspect.isclass(value):
                    classes.add(owner)
                elif inspect.isfunction(value):
                    self._set(mod, attr, self._wrap(owner[0], owner[1], value))
        for layer, names in SELF_BOUND.items():
            for name in names:
                self._set(mods[layer], name, self._wrap(layer, name, getattr(mods[layer], name)))
        self._wrap("cli", "main", mods["cli"].main)
        for layer, cls_name in sorted(classes):
            cls = getattr(mods[layer], cls_name)
            if issubclass(cls, BaseException):
                continue
            for attr, raw in list(cls.__dict__.items()):
                if attr.startswith("__"):
                    continue
                if isinstance(raw, classmethod):
                    wrapped = self._wrap(layer, f"{cls_name}.{attr}", raw.__func__)
                    self._set(cls, attr, classmethod(wrapped))
                elif inspect.isfunction(raw) and not attr.startswith("_"):
                    self._set(cls, attr, self._wrap(layer, f"{cls_name}.{attr}", raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def entry(self, layer: str, name: str):
        """The wrapped function the benchmark calls in place of layer.name."""
        return self.wrapped[(layer, name)]

    def new_pass(self, record_spans: bool) -> PassStats:
        self._stack.clear()  # a time limit can end a pass inside a wrapper
        self.stats = PassStats()
        self.spans = [] if record_spans else None
        return self.stats

    def span_records(self) -> list[dict]:
        return [
            {"name": self.names[label], "start": start, "end": end, "parent": parent}
            for label, start, end, parent in (self.spans or [])
        ]
