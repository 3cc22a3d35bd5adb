"""Span tracing of the purebraid layers, installed from outside the package.

Each layer is one module of the package.  `Tracer.install` wraps the public
functions and methods each layer defines (plus its arithmetic operators) at
every name they are looked up by from outside their module: the `from ...
import` copies in other modules (the CLI imports `presentation_pure`,
`devissage`, ... that way), the package namespace, and the module itself as
other code sees it, through a copy of the module that replaces it in
`sys.modules` and on the package.  Calls a module makes to its own functions
use its original globals and stay unwrapped.

A span is recorded when a call enters a layer from another layer or from the
benchmark; `calls` counts these entries.  Calls that stay inside a layer
(methods a layer calls on its own objects) pass through.  Spans are kept in
memory and written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from types import FunctionType, ModuleType

LAYERS = ("cli", "coxeter", "braid", "nmap", "schreier", "free_actions", "embedding")
OPERATORS = frozenset({"__mul__", "__add__", "__sub__", "__neg__", "__pow__"})
OP_LAYER = "op"  # the benchmark's own span around one timed operation


class Tracer:
    def __init__(self):
        self.names = [OP_LAYER, *LAYERS]
        self.layer_id = {name: k for k, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters: dict = {}
        self.active = False
        self.op_id = -1
        self._stack: list = []  # frames [layer, start, child_time, span]
        self._funcs: list = [OP_LAYER]
        # one entry per span, in order of entry
        self.span_layer = array("b")
        self.span_func = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: int, func: int) -> list:
        self.calls[layer] += 1
        span = len(self.span_start)
        self.span_layer.append(layer)
        self.span_func.append(func)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [layer, start, 0.0, span]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.span_end[frame[3]] = end
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def run_op(self, op_id: int, fn):
        """Call fn() inside an `op` span, with tracing on for its duration."""
        self.op_id = op_id
        self.active = True
        frame = self._enter(0, 0)
        try:
            return fn()
        finally:
            self._exit(frame)
            self.active = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: int, qualname: str, fn):
        func = len(self._funcs)
        self._funcs.append(f"{self.names[layer]}.{qualname}")
        tracer, stack = self, self._stack

        def passes_through() -> bool:
            return not tracer.active or (stack and stack[-1][0] == layer)

        if inspect.isgeneratorfunction(fn):
            # the work happens in next(), so each resumption is a span
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = None if passes_through() else tracer._enter(layer, func)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            tracer._exit(frame)
                    yield value
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active or (stack and stack[-1][0] == layer):
                    return fn(*args, **kwargs)
                frame = tracer._enter(layer, func)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package: str = "purebraid", on_init=None) -> None:
        """Wrap every imported layer module of `package`.

        `on_init` maps "layer.Class" to a hook called with each new instance.
        """
        on_init = dict(on_init or {})
        pkg = sys.modules[package]
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        replaced = {}  # id(original function) -> wrapper
        for lname in LAYERS:
            mod = modules.get(f"{package}.{lname}")
            if mod is None:
                continue
            layer = self.layer_id[lname]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    replaced[id(obj)] = self._wrap(layer, name, obj)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
                    hook = on_init.get(f"{lname}.{name}")
                    if hook is not None:
                        _hook_init(obj, hook)
        for name, mod in modules.items():
            own = vars(mod)
            for attr, obj in list(own.items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and obj.__module__ != name:
                    own[attr] = wrapper  # a `from ... import` copy
            if mod is pkg or name.rsplit(".", 1)[-1] not in LAYERS:
                continue
            copy = ModuleType(name, mod.__doc__)
            vars(copy).update(own)
            for attr, obj in list(own.items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(copy, attr, wrapper)
            sys.modules[name] = copy
            setattr(pkg, name.rsplit(".", 1)[-1], copy)

    def _wrap_class(self, layer: int, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, FunctionType):
                setattr(cls, name, self._wrap(layer, qual, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(layer, qual, attr.__func__)))

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for lname in LAYERS:
            k = self.layer_id[lname]
            out[f"{lname}.calls"] = self.calls[k]
            out[f"{lname}.self_s"] = self.self_s[k]
        return out

    def function_seconds(self, qualname: str) -> float:
        """Total time of the spans that entered a layer through `qualname`."""
        if qualname not in self._funcs:
            return 0.0
        func = self._funcs.index(qualname)
        return sum(self.span_end[k] - self.span_start[k]
                   for k in range(len(self.span_start)) if self.span_func[k] == func)

    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path) -> None:
        """One tab-separated line per span; times in seconds from the first."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tlayer\tfunction\tstart_s\tend_s\n")
            for k in range(len(self.span_start)):
                fh.write(f"{k}\t{self.span_parent[k]}\t{self.span_op[k]}\t"
                         f"{self.names[self.span_layer[k]]}\t"
                         f"{self._funcs[self.span_func[k]]}\t"
                         f"{self.span_start[k] - t0:.9f}\t{self.span_end[k] - t0:.9f}\n")


def _hook_init(cls: type, hook) -> None:
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        hook(self)

    cls.__init__ = __init__
