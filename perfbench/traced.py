"""Run the gogmagog command line with every public function of the package timed.

Usage, from the repository root:

    python3 perfbench/traced.py STATS.json enumerate --family boolean --n 3

The arguments after STATS.json are the CLI's own; stdout and the exit code are
the CLI's too.  Before the CLI runs, every public function, constructor and
public method of the ``gogmagog`` modules is replaced by a wrapper that records
its calls, its inclusive seconds and its self seconds (inclusive seconds minus
the seconds of the wrapped calls made inside it).  A generator is timed per
``next()``, so the work its consumer does between items is charged to the
consumer.  References taken at import time are swapped as well: names bound
by ``from .x import f`` and functions held in registries such as
``cli._EDGES``, ``cli._POSET_BUILDERS``, ``claims.CLAIMS`` and
``statistics.STATISTICS``.  Any original still reachable afterwards is listed
in the stats file under ``unwrapped``.  The stats file is written when the CLI
returns, whatever its exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from enum import Enum
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("triangles", "bijections", "enumeration", "statistics", "poset", "orders", "claims", "cli")
# How deep the swap looks into module-level dicts, lists and tuples: deep
# enough for cli._EDGES (dict of lists of tuples) and statistics.STATISTICS
# (dict of dicts).
CONTAINER_DEPTH = 3


class Tracer:
    """Per-span counters: name -> [calls, inclusive seconds, self seconds, yields]."""

    def __init__(self):
        self.spans = {}
        self.max_poset_elements = 0
        self._children = []  # seconds of wrapped calls inside each open span

    def _record(self, rec, start):
        elapsed = time.perf_counter() - start
        rec[1] += elapsed
        rec[2] += elapsed - self._children.pop()
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                rec[0] += 1
                items = fn(*args, **kwargs)
                while True:
                    self._children.append(0.0)
                    start = time.perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._record(rec, start)
                    rec[3] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec[0] += 1
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(rec, start)

        return traced


def _public_callables(module):
    """(span name, owner, attribute, function) for every public function,
    constructor and public method defined in the module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
            for attr, value in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(value, (classmethod, staticmethod)) or inspect.isfunction(value):
                    yield f"{layer}.{name}.{attr}", obj, attr, value


def _is_original(value, swaps):
    entry = swaps.get(id(value))
    return entry is not None and entry[0] is value


def _swapped(value, swaps, depth):
    """The value with every original function replaced by its wrapper;
    dicts and lists are changed in place, tuples rebuilt."""
    if _is_original(value, swaps):
        return swaps[id(value)][1]
    if depth == 0:
        return value
    if isinstance(value, (dict, list)):
        keys = value.keys() if isinstance(value, dict) else range(len(value))
        for key in list(keys):
            new = _swapped(value[key], swaps, depth - 1)
            if new is not value[key]:
                value[key] = new
        return value
    if isinstance(value, tuple):
        items = tuple(_swapped(item, swaps, depth - 1) for item in value)
        return items if any(a is not b for a, b in zip(items, value)) else value
    return value


def _module_globals(module):
    return {name: value for name, value in vars(module).items() if not name.startswith("__")}


def _reachable_originals(modules, swaps):
    found = []

    def visit(where, value, depth):
        if _is_original(value, swaps):
            found.append(where)
        elif depth and isinstance(value, dict):
            for key, item in value.items():
                visit(f"{where}[{key!r}]", item, depth - 1)
        elif depth and isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                visit(f"{where}[{i}]", item, depth - 1)

    for module in modules:
        for name, value in _module_globals(module).items():
            visit(f"{module.__name__}.{name}", value, CONTAINER_DEPTH)
    return found


def install(tracer):
    """Wrap the package; returns the wrapped ``gogmagog.cli`` module and the
    list of originals still reachable (empty when the swap is complete)."""
    package = importlib.import_module("gogmagog")
    modules = [importlib.import_module(f"gogmagog.{layer}") for layer in LAYERS]
    poset_class = modules[LAYERS.index("poset")].Poset
    swaps = {}
    for module in modules:
        for span, owner, attr, value in list(_public_callables(module)):
            fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if owner is poset_class and attr == "__init__":
                fn = _sizing_init(tracer, fn)
            wrapper = tracer.wrap(span, fn)
            if isinstance(value, (classmethod, staticmethod)):
                wrapper = type(value)(wrapper)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            swaps[id(value)] = (value, wrapper)
    for module in [package, *modules]:
        for name, value in _module_globals(module).items():
            new = _swapped(value, swaps, CONTAINER_DEPTH)
            if new is not value:
                setattr(module, name, new)
    return modules[LAYERS.index("cli")], _reachable_originals([package, *modules], swaps)


def _sizing_init(tracer, init):
    """Poset.__init__ that also records the largest poset built."""

    @functools.wraps(init)
    def sized(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.max_poset_elements = max(tracer.max_poset_elements, len(self.labels))

    return sized


def main(argv):
    stats_path, cli_args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    cli, unwrapped = install(tracer)
    enumeration = sys.modules["gogmagog.enumeration"]
    try:
        return cli.main(cli_args)
    finally:
        cache = enumeration._elements.cache_info()
        stats_path.write_text(
            json.dumps(
                {
                    "package": sys.modules["gogmagog"].__file__,
                    "spans": tracer.spans,
                    "max_poset_elements": tracer.max_poset_elements,
                    "family_cache": {"hits": cache.hits, "misses": cache.misses},
                    "unwrapped": unwrapped,
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
