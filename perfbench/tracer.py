"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces every public module-level function of the traced
``trirecom`` modules, in every ``trirecom`` module namespace that binds it
(``from .partition import classify`` in ``moves`` too), with a wrapper that
times each call as a span of its layer (the defining module) inside the
enclosing span.  Spans are summed as they close, into calls and inclusive
time per function and self time per layer (a span's time minus its child
spans).  Nothing in ``src/`` changes.

`lattice` is not traced: its `TriRegion` methods run in the inner loops of
`partition`, so their cost is counted in the caller's self time.  Generator
functions are not wrapped, because their body runs after the call returns;
their work is counted in whichever span iterates them.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("partition", "moves", "toolkit", "pathfinder", "oracle", "cli")


class Stats:
    """Totals of one traced phase."""

    def __init__(self):
        self.calls = Counter()            # function name -> calls
        self.incl_s = defaultdict(float)  # function name -> inclusive seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.layer_calls = Counter()      # layer -> calls
        self.toolkit_errors = 0           # StructuralError out of an outermost toolkit call
        self.raw_steps = 0                # steps passed to compress_steps
        self.kept_steps = 0               # steps compress_steps returned


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self.enabled = True
        self._stack: list[list] = []      # [layer, start, child seconds]
        self._structural = Exception

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call fn inside a span of `layer` opened by the benchmark itself."""
        return self._wrap(layer, name, fn)(*args, **kwargs)

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        is_toolkit = layer == "toolkit"
        counts_steps = name == "pathfinder.compress_steps"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stats = self.stats
            caller = stack[-1][0] if stack else None
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if (
                    is_toolkit
                    and caller != "toolkit"
                    and isinstance(exc, self._structural)
                ):
                    stats.toolkit_errors += 1
                raise
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                stats.calls[name] += 1
                stats.incl_s[name] += dur
                stats.self_s[layer] += dur - frame[2]
                stats.layer_calls[layer] += 1
            if counts_steps:
                stats.raw_steps += len(args[1])
                stats.kept_steps += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        from trirecom.toolkit import StructuralError

        self._structural = StructuralError
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"trirecom.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(value)
                ):
                    wrappers[id(value)] = self._wrap(layer, f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "trirecom" and not modname.startswith("trirecom."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def reset(self) -> Stats:
        """Start a new phase; return the totals of the one that ended."""
        done, self.stats = self.stats, Stats()
        return done

