"""Spans and counters recorded from outside the library.

`Tracer` replaces every public function of the given modules, at every
module attribute it is bound to (so `cli.validate` is traced as well as
`model.validate`), with a wrapper that records a span (name, start, end,
parent) and counts the call. Uninstalling puts every original back.
Span times are CPU time of the thread, like the runner's op times; they
include the runner's reference-kernel samples (about 2% of CPU time).

A span is named `<layer>.<function>`, where the layer is the last part of
the defining module's name. A layer's self time is the time of its spans
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# hook(tracer, args, result, parent span name) runs after the span closes.
Hook = Callable[["Tracer", tuple, Any, Optional[str]], None]
Span = Tuple[str, float, float, int]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, modules: List[Any], hooks: Optional[Dict[str, Hook]] = None) -> None:
        self.modules = modules
        self.hooks = hooks or {}
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.notes: Dict[str, Any] = {}
        self._stack: List[Tuple[int, str]] = []  # open spans: (index, name)
        self._patched: List[Tuple[Any, str, Any]] = []

    def public_functions(self) -> Dict[int, Tuple[str, Callable]]:
        found = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    found[id(value)] = (f"{layer}.{attr}", value)
        return found

    def install(self) -> None:
        wrappers = {key: (fn, self._wrap(name, fn))
                    for key, (name, fn) in self.public_functions().items()}
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.notes.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((idx, name))
        start = time.thread_time()
        try:
            yield
        finally:
            end = time.thread_time()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            self.counts[name + ".calls"] += 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result, tracer._stack[-1][1] if tracer._stack else None)
            return result

        return traced

    def self_times(self) -> Tuple[Counter, Counter]:
        """(self time per layer, own-layer time per function).

        A function's own-layer time is its span time minus the time of
        descendant spans in other layers; a direct recursive call is
        counted once, inside its caller.
        """
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("self times asked for while spans are open")
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer: Counter = Counter()
        own = [0.0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent = spans[i]
            own[i] += (end - start) - child[i]
            by_layer[layer_of(name)] += (end - start) - child[i]
            if parent >= 0 and layer_of(spans[parent][0]) == layer_of(name):
                own[parent] += own[i]
        by_function: Counter = Counter()
        for i, (name, _, _, parent) in enumerate(spans):
            if parent < 0 or spans[parent][0] != name:
                by_function[name] += own[i]
        return by_layer, by_function
