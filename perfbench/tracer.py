"""Outside-in tracer for the reebflow package.

The tracer instruments the package from outside: it replaces every
module-level binding of each public function of the traced layers (a
function imported with ``from .transverse import metric_state`` is bound
again in every module that imports it, and each binding is replaced), plus
the few methods every application of an operator passes through, and the
two numpy dense solvers.  Nothing inside ``src/`` is edited, and
``uninstall`` puts every original back.

Each wrapped call is a span.  Per span name the tracer keeps the call
count, failures (calls that raised), inclusive time (outermost activation
only, so recursion is not double counted) and self time (duration minus
the time of child spans).  Per layer it keeps the time of spans with no
ancestor in the same layer.  For every pair (ancestor, span) it counts the
calls of ``span`` made while ``ancestor`` was active, which gives ratios
such as Laplacian applications per ledger where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "reebflow"
LAYERS = (
    "transverse",
    "functionals",
    "continuity",
    "flow",
    "curvature",
    "oracle2d",
    "verification",
    "io",
    "cli",
)

# Methods that are not module-level functions but carry the work a layer
# metric counts: every pointwise Laplacian application goes through
# Grid._laplacian_ld, and every ledger through FunctionalLedger.evaluate.
METHODS = (
    ("transverse", "Grid", "_laplacian_ld", "transverse.laplacian"),
    ("functionals", "FunctionalLedger", "evaluate", "functionals.ledger"),
)

# numpy dense solvers, attributed to the layer of the innermost active span
NUMPY_SOLVERS = (("solve", "dense_solve"), ("lstsq", "lstsq"))


class SpanStats:
    __slots__ = ("calls", "failed", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """Install with ``install()``, read ``stats``/``layer_s``/``nested``,
    take a fresh window with ``reset()``, remove with ``uninstall()``."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        self._wrappers: set[int] = set()
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.layer_s: Counter = Counter()
        self.nested: Counter = Counter()
        self.bytes_written = 0
        self.flow_records = 0
        # each frame: [name, layer, child_time]
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._active_layers: Counter = Counter()

    def _span(self, name: str, fn, args, kwargs):
        layer = name.split(".", 1)[0]
        for ancestor in self._active:
            self.nested[(ancestor, name)] += 1
        outer = self._active[name] == 0
        outer_layer = self._active_layers[layer] == 0
        frame = [name, layer, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        self._active_layers[layer] += 1
        st = self.stats[name]
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            st.failed += 1
            raise
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._active[name] -= 1
            if not self._active[name]:
                del self._active[name]
            self._active_layers[layer] -= 1
            st.calls += 1
            st.self_s += dur - frame[2]
            if outer:
                st.s += dur
            if outer_layer:
                self.layer_s[layer] += dur
            if self._stack:
                self._stack[-1][2] += dur
        self._observe(name, layer, result)
        return result

    def _observe(self, name: str, layer: str, result) -> None:
        if layer == "io" and isinstance(result, Path):
            self.bytes_written += result.stat().st_size
        elif name == "flow.run_flow":
            self.flow_records += len(result.records)

    def _make_wrapper(self, name: str, fn):
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, args, kwargs)

        for attr in ("cache_info", "cache_clear"):  # lru_cache'd functions
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        self._wrappers.add(id(wrapper))
        return wrapper

    def _make_solver_wrapper(self, suffix: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            layer = stack[-1][1] if stack else "numpy"
            return self._span(f"{layer}.{suffix}", fn, args, kwargs)

        self._wrappers.add(id(wrapper))
        return wrapper

    # -- installation ------------------------------------------------------

    def _modules(self) -> list:
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _public_functions(self, module) -> dict[str, object]:
        """Public functions (plain or lru-cached) a module defines."""
        out = {}
        for attr, val in vars(module).items():
            if attr.startswith("_") or inspect.isclass(val):
                continue
            if getattr(val, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(val) or inspect.isfunction(getattr(val, "__wrapped__", None)):
                out[attr] = val
        return out

    def _patch(self, owner, attr: str, new) -> None:
        # a class's __dict__ holds the raw descriptor (classmethod), which
        # getattr would bind
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.linalg

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        missing = [layer for layer in LAYERS if layer not in mods]
        if missing:
            raise RuntimeError(f"layers not imported: {missing}")

        replacement: dict[int, object] = {}
        for layer in LAYERS:
            for attr, fn in self._public_functions(mods[layer]).items():
                self._originals[id(fn)] = f"{layer}.{attr}"
                replacement[id(fn)] = self._make_wrapper(f"{layer}.{attr}", fn)
        # rebind every module-level reference, not only the defining one
        for module in mods.values():
            for attr, val in list(vars(module).items()):
                new = replacement.get(id(val))
                if new is not None:
                    self._patch(module, attr, new)

        for layer, cls_name, meth, span_name in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._originals[id(raw.__func__)] = span_name
                new = classmethod(self._make_wrapper(span_name, raw.__func__))
            else:
                self._originals[id(raw)] = span_name
                new = self._make_wrapper(span_name, raw)
            self._patch(cls, meth, new)

        for attr, suffix in NUMPY_SOLVERS:
            self._patch(numpy.linalg, attr,
                        self._make_solver_wrapper(suffix, getattr(numpy.linalg, attr)))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()
        self._wrappers.clear()

    # -- self-checks -------------------------------------------------------

    def unwrapped(self) -> list[str]:
        """Bindings in package modules that still hold an original, and
        public package functions the tracer does not know about."""
        bad = []
        for module in self._modules():
            layer = module.__name__.rsplit(".", 1)[-1]
            public = self._public_functions(module) if layer in LAYERS else {}
            for attr, val in vars(module).items():
                if id(val) in self._wrappers:
                    continue
                if id(val) in self._originals:
                    bad.append(f"{module.__name__}.{attr} (original of {self._originals[id(val)]})")
                elif attr in public:
                    bad.append(f"{module.__name__}.{attr} (not traced)")
        for layer, cls_name, meth, _ in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            raw = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(raw) not in self._wrappers:
                bad.append(f"{cls_name}.{meth}")
        return bad

    def leftover_wrappers(self) -> list[str]:
        """After ``uninstall``: bindings that still hold a wrapper."""
        import numpy.linalg

        owners = [*self._modules(), numpy.linalg]
        owners += [getattr(sys.modules[f"{PACKAGE}.{layer}"], cls)
                   for layer, cls, _, _ in METHODS]
        bad = []
        for owner in owners:
            for attr, val in vars(owner).items():
                val = val.__func__ if isinstance(val, classmethod) else val
                code = getattr(val, "__code__", None)
                if code is not None and code.co_filename == __file__:
                    bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad
