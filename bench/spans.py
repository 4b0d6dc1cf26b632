"""Call spans around flamefront's layers, installed from outside the package.

`Tracer.install()` replaces each public function of the layer modules, at
every module attribute of the package that refers to it, with a wrapper
that records a span: function key, parent span, start and end.  Public
classmethods and methods of the layers' public classes are wrapped the
same way (`ThetaProfile.from_values` does the FFTs of most call chains).
scipy's `lu_factor`/`lu_solve` are wrapped as the `linalg` layer where a
flamefront module reaches them, and numpy's FFT functions are counted (not
timed) where a flamefront module calls them.  `uninstall()` puts every
original back.

Spans are kept in flat arrays while the traced code runs; self times and
per-layer sums are derived afterwards by `Summary`.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from array import array

import numpy as np
import scipy
import scipy.linalg

LAYERS = ("spectral", "model", "bifurcation", "solver", "geometry", "evolution", "cli")
_FFT_FUNCS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)


class Spans:
    """Flat span storage: key id, parent span index, start, end, tag."""

    def __init__(self):
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("i")
        self.failed = []
        self.ffts = 0


class Tracer:
    def __init__(self, package, hooks=None):
        self.package = package
        # key -> hook(args) returning an int tag stored with the span
        self.hooks = dict(hooks or {})
        self.keys = []  # key id -> "layer.name", stable across installs
        self.spans = Spans()
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, key):
        if key not in self.keys:
            self.keys.append(key)
        kid = self.keys.index(key)
        tag = self.hooks.get(key)
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            s = tracer.spans
            idx = len(s.key)
            s.key.append(kid)
            s.parent.append(stack[-1] if stack else -1)
            s.tag.append(tag(args) if tag is not None else 0)
            s.end.append(0.0)
            stack.append(idx)
            s.start.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                s.failed.append(idx)
                raise
            finally:
                s.end[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        layer_modules = {
            layer: importlib.import_module(f"{self.package.__name__}.{layer}") for layer in LAYERS
        }
        modules = self._modules()
        replace = {}  # id(original) -> wrapper
        for layer, mod in layer_modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{layer}.{name}")
        for fn in (scipy.linalg.lu_factor, scipy.linalg.lu_solve):
            replace[id(fn)] = self._wrap(fn, f"linalg.{fn.__name__}")
        linalg_proxy = _copy_module(
            scipy.linalg, {n: replace[id(getattr(scipy.linalg, n))] for n in ("lu_factor", "lu_solve")}
        )
        scipy_proxy = _copy_module(scipy, {"linalg": linalg_proxy})
        numpy_proxy = _copy_module(np, {"fft": _copy_module(np.fft, self._counted_ffts())})
        for mod in modules:
            for name, value in list(mod.__dict__.items()):
                if id(value) in replace:
                    self._set(mod, name, replace[id(value)])
                elif value is np:
                    self._set(mod, name, numpy_proxy)
                elif value is scipy:
                    self._set(mod, name, scipy_proxy)
                elif value is scipy.linalg:
                    self._set(mod, name, linalg_proxy)

    def _wrap_class(self, cls, prefix):
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, f"{prefix}.{name}")))
            elif isinstance(attr, types.FunctionType):
                self._set(cls, name, self._wrap(attr, f"{prefix}.{name}"))

    def _counted_ffts(self):
        tracer = self
        out = {}
        for name in _FFT_FUNCS:
            fn = getattr(np.fft, name)

            def counted(*args, _fn=fn, **kwargs):
                tracer.spans.ffts += 1
                return _fn(*args, **kwargs)

            out[name] = counted
        return out

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def take(self):
        """Return the spans recorded so far and start a fresh store."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        spans, self.spans = self.spans, Spans()
        return spans

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _copy_module(mod, overrides):
    """A module object with mod's namespace and some names replaced.

    Attribute lookups on it are plain dict lookups, so the proxy adds no
    cost to the calls it does not replace.
    """
    proxy = types.ModuleType(mod.__name__)
    proxy.__dict__.update(mod.__dict__)
    proxy.__dict__.update(overrides)
    return proxy


class Summary:
    """Per-key counts, inclusive and self durations of one span store."""

    def __init__(self, tracer, spans):
        n = len(spans.key)
        self.keys = list(tracer.keys)
        self.key = np.asarray(spans.key, dtype=np.intp)
        parent = np.asarray(spans.parent, dtype=np.intp)
        self.dur = np.asarray(spans.end) - np.asarray(spans.start)
        self.tag = np.asarray(spans.tag, dtype=np.intp)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_dur = self.dur - child
        layer_of_key = np.array([k.split(".", 1)[0] for k in self.keys] + [""])
        self.layer = layer_of_key[self.key]
        parent_layer = layer_of_key[np.where(has_parent, self.key[parent], -1)]
        self.outermost = self.layer != parent_layer
        self.failed = np.zeros(n, dtype=bool)
        self.failed[spans.failed] = True
        self.ffts = spans.ffts

    def mask(self, key):
        if key not in self.keys:
            return np.zeros(self.key.size, dtype=bool)
        return self.key == self.keys.index(key)

    def count(self, key):
        return int(np.count_nonzero(self.mask(key)))

    def total(self, key, field="dur"):
        return float(np.sum(getattr(self, field)[self.mask(key)]))

    def median(self, key, where=None):
        sel = self.mask(key) if where is None else self.mask(key) & where
        return float(np.median(self.dur[sel])) if np.any(sel) else 0.0

    def layer_self(self, layer):
        return float(np.sum(self.self_dur[self.layer == layer]))

    def layer_calls(self, layer):
        return int(np.count_nonzero(self.layer == layer))

    def layer_inclusive(self, layer):
        """Time inside the layer, counting nested calls into it once."""
        return float(np.sum(self.dur[(self.layer == layer) & self.outermost]))
