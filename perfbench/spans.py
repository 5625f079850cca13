"""Per-layer spans recorded from outside the library.

`Tracer.install` wraps the public functions, constructors and public
methods of each qbayes layer module, plus `np.linalg.eigh`,
`np.linalg.eigvalsh` and `np.einsum` as qbayes calls them, and puts the
wrappers at every binding site: names imported with `from .linalg import
psd_sqrt` are separate globals of the importing module, and patching only
the defining module would silently undercount. numpy itself is left
alone; each qbayes module's `np` global is pointed at a copy of the numpy
namespace that holds the wrapped kernels.

Spans are aggregated as they close, so memory stays bounded however many
calls a run makes: per span key, the number of calls, busy (inclusive)
seconds, self seconds (busy minus the time covered by child spans) and
the number of calls that raised.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import types
from time import perf_counter

import numpy

LAYERS = ("cli", "verify", "correspond", "quantum", "classical", "linalg")
# Layers that hold library operations, as opposed to the CLI and the
# verification harness that drive them.
LIBRARY = frozenset({"correspond", "quantum", "classical", "linalg"})
CONSTRUCTORS = frozenset({"quantum.QState.init", "quantum.Effect.init", "quantum.QChannel.init"})
STATS = {"calls": 0, "busy_s": 1, "self_s": 2, "raised": 3}


def _einsum_loop_ops(args) -> int:
    """Product of all index extents of an einsum call (computed, not timed)."""
    inputs = args[0].split("->")[0].split(",")
    extents = {}
    for term, operand in zip(inputs, args[1:]):
        extents.update(zip(term, numpy.shape(operand)))
    return math.prod(extents.values())


def _eig_n3(args) -> int:
    """Sum of n^3 over the (possibly stacked) matrices passed to eigh/eigvalsh."""
    shape = numpy.shape(args[0])
    return math.prod(shape[:-2]) * shape[-1] ** 3


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.ctor_calls = 0
        self.ctor_internal = 0
        self.eig_n3_sum = 0
        self.einsum_loop_ops = 0
        self._stack: list[list] = []  # open spans: [child seconds, layer]
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, key: str, fn, on_enter=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        layer = key.split(".", 1)[0]

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return functools.update_wrapper(traced, fn)

    def _on_constructor(self, args) -> None:
        self.ctor_calls += 1
        if self._stack and self._stack[-1][1] in LIBRARY:
            self.ctor_internal += 1

    def _on_eig(self, args) -> None:
        self.eig_n3_sum += _eig_n3(args)

    def _on_einsum(self, args) -> None:
        self.einsum_loop_ops += _einsum_loop_ops(args)

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        self._originals[id(original)] = original
        self._wrappers[id(original)] = wrapper

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value), self) is value

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{'init' if attr == '__init__' else attr}"
            on_enter = self._on_constructor if key in CONSTRUCTORS else None
            if inspect.isfunction(val):
                new = self._wrap(key, val, on_enter)
            elif isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(key, val.__func__, on_enter))
            else:
                continue  # properties and plain class attributes
            self._replace(val, new)
            self._set(cls, attr, new)

    def install(self) -> None:
        """Wrap every traced callable and rebind it wherever qbayes holds it."""
        for layer in LAYERS:
            mod = sys.modules[f"qbayes.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        linalg_copy = types.ModuleType("numpy.linalg")
        vars(linalg_copy).update(vars(numpy.linalg))
        np_copy = types.ModuleType("numpy")
        vars(np_copy).update(vars(numpy))
        np_copy.linalg = linalg_copy
        for owner, name, key, on_enter in (
            (linalg_copy, "eigh", "numpy.eig.eigh", self._on_eig),
            (linalg_copy, "eigvalsh", "numpy.eig.eigvalsh", self._on_eig),
            (np_copy, "einsum", "numpy.einsum", self._on_einsum),
        ):
            original = getattr(owner, name)
            wrapper = self._wrap(key, original, on_enter)
            setattr(owner, name, wrapper)
            self._replace(original, wrapper)
        self._replace(numpy, np_copy)
        self._replace(numpy.linalg, linalg_copy)
        for mod in _qbayes_modules():
            for name, val in list(vars(mod).items()):
                if self._is_original(val):
                    self._set(mod, name, self._wrappers[id(val)])

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Every place in qbayes that still holds an original traced object."""
        found = []
        for mod in _qbayes_modules():
            for name, val in vars(mod).items():
                if self._is_original(val):
                    found.append(f"{mod.__name__}.{name}")
                if inspect.isclass(val) and val.__module__.startswith("qbayes"):
                    for attr, member in vars(val).items():
                        if self._is_original(member):
                            found.append(f"{mod.__name__}.{name}.{attr}")
        return sorted(set(found))

    # -- results -----------------------------------------------------------

    def value(self, name: str) -> float:
        """Total of one per-layer metric, named as in BENCHMARK.json."""
        prefix, stat = name.rsplit(".", 1)
        if name == "quantum.ctor.internal_share":
            return self.ctor_internal / self.ctor_calls if self.ctor_calls else 0.0
        if name == "numpy.eig.n3_sum":
            return float(self.eig_n3_sum)
        if name == "numpy.einsum.loop_ops":
            return float(self.einsum_loop_ops)
        if name == "verify.generate.self_s":
            return self._sum("verify.random_", 2)
        if prefix == "numpy.eig" or (prefix in LAYERS and stat == "self_s"):
            return self._sum(prefix + ".", STATS[stat])
        return float(self.stats[prefix][STATS[stat]])

    def _sum(self, key_prefix: str, index: int) -> float:
        return float(
            sum(s[index] for key, s in self.stats.items() if key.startswith(key_prefix))
        )


def _qbayes_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qbayes" or name.startswith("qbayes."))
    ]
