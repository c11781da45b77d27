"""Per-layer tracing of starq from outside its code.

``Tracer.install`` replaces the functions and methods of starq's layer
modules with timing wrappers, in every starq module namespace that holds
them, so names a caller imported (``star.enumerate_terms``) are wrapped too.
Calls of the functions in ``SPANS`` are recorded as spans (name, start,
end, parent); every other call only adds to its function's in-memory
aggregate (calls, inclusive time, self time), which keeps the cost of
ring-level calls low.  Self time is a call's duration minus the time of the
wrapped calls it made; summed over a module it gives ``<module>.self_s``.
All times are ``time.perf_counter`` seconds of the traced process.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time

# Modules whose functions are wrapped; each one is a layer with a self time.
LAYERS = ("cochains", "jets", "polynomials", "linsolve", "opo", "star", "verify", "cli")

# Public names are wrapped, and of the underscore names only these: the ring
# and cochain arithmetic.  Generator functions are left alone, since their
# work happens in the caller's loop.
ARITHMETIC = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__eq__"}

# Functions recorded as individual spans; everything else is aggregated.
SPANS = {
    "cli.main", "star.build_star", "star.assemble_rhs", "star.obstruction",
    "star.check_grading", "star.DeltaSolver.solve", "star.solve_opo",
    "star.opo_projections", "star.StarProduct.from_json", "star.StarProduct.to_json",
    "opo.enumerate_terms", "opo.concretize", "cochains.Cochain.bracket",
    "cochains.Cochain.insert", "cochains.Cochain.hochschild_delta",
    "cochains.Cochain.antisymmetrize", "cochains.Cochain.specialize",
    "verify.verify_star", "verify.associator",
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total, self]
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack = [0.0]  # child time of the open calls, innermost last
        self._open = [-1]  # index of the innermost open span
        self._wrapped: dict[int, object] = {}

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, open_, clock = self._stack, self.spans, self._open, time.perf_counter
        is_span = name in SPANS

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            if is_span:
                index = len(spans)
                spans.append([name, None, None, open_[-1]])
                open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if is_span:
                    spans[index][1:3] = start, start + elapsed
                    open_.pop()
                child = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its operations."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1]])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and method, in all namespaces that name it."""
        modules = {name: sys.modules[f"starq.{name}"] for name in LAYERS}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if _public(attr, value) and value.__module__ == module.__name__:
                    self._wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(layer, value)
        for name, module in list(sys.modules.items()):
            if name == "starq" or name.startswith("starq."):
                for attr, value in list(vars(module).items()):
                    wrapper = self._wrapped.get(id(value))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)

    def _install_class(self, layer: str, cls) -> None:
        seen: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not _public(attr, fn):
                continue
            if id(fn) not in seen:  # __rmul__ = __mul__ shares one wrapper
                seen[id(fn)] = self._wrap(f"{layer}.{cls.__name__}.{attr}", fn)
            wrapper = seen[id(fn)]
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    # -- results -------------------------------------------------------------------

    def module_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, own) in self.stats.items():
            out[name.split(".", 1)[0]] += own
        return out

    def write(self, path, meta: dict) -> None:
        """Spans as JSON lines after one line of run metadata and aggregates."""
        with open(path, "w") as handle:
            head = dict(meta, aggregates={n: s for n, s in self.stats.items() if s[0]})
            handle.write(json.dumps(head) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def _public(name: str, value) -> bool:
    return (inspect.isfunction(value) and not inspect.isgeneratorfunction(value)
            and (not name.startswith("_") or name in ARITHMETIC))
