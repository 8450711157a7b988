"""Span tracing of spinray from outside the package.

`Tracer.install` wraps every public function of each spinray module, and
the `value`/`gradient`/`hessian` methods of the index fields and
`Scene.medium_at`, at every place the name is bound.  Modules import each
other's functions with `from .x import f`, so replacing `x.f` alone would
miss the calls made through the other modules' own bindings.  `restore`
puts every original back.

A span is recorded for each call while the tracer is active: name, parent
span, start and end.  Spans are allocated at entry, so a parent's index
is always below its children's.  Spans live in flat arrays in memory and
are written out once, at the end of the run (run.py).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# The modules of src/spinray, in the order the report lists them.
LAYERS = ("fields", "curvature", "vectors", "orbits", "propagation", "scattering",
          "scene", "runner", "checks", "cli")

_FIELD_CLASSES = ("ConstantIndex", "LinearGradientIndex", "GaussianBumpIndex", "GridIndex")
_FIELD_METHODS = ("value", "gradient", "hessian")

# Values taken from a call's result and stored on its span: the number
# of committed steps of a trajectory and the number of sweep rows.
_RESULT_COUNTS = {
    "propagation.integrate": lambda traj: len(traj) - 1,
    "runner.sweep_rows": len,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.count = array("l")
        self._stack = [-1]
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.t0)

    def _wrap(self, fn, span: str):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, t0, t1, counts = self.name, self.parent, self.t0, self.t1, self.count
        stack = self._stack
        tracer = self
        clock = time.perf_counter
        result_count = _RESULT_COUNTS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(t0)
            names.append(nid)
            parents.append(stack[-1])
            counts.append(0)
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if result_count is not None:
                counts[i] = result_count(out)
            return out

        return traced

    def install(self, package: str = "spinray") -> None:
        """Wrap the public functions of each layer at all of their bindings."""
        prefix = package + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(prefix))]
        for layer in LAYERS:
            owner = sys.modules[prefix + layer]
            for attr, obj in sorted(vars(owner).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != owner.__name__):
                    continue
                wrapped = self._wrap(obj, f"{layer}.{attr}")
                for mod in modules:
                    for bound, val in list(vars(mod).items()):
                        if val is obj:
                            self._patch(mod, bound, wrapped)
        fields = sys.modules[prefix + "fields"]
        for cls_name in _FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for meth in _FIELD_METHODS:
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], f"fields.{meth}"))
        scene_cls = sys.modules[prefix + "scene"].Scene
        self._patch(scene_cls, "medium_at",
                    self._wrap(scene_cls.__dict__["medium_at"], "scene.medium_at"))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int_).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "t0": np.frombuffer(self.t0, dtype=float).copy(),
            "t1": np.frombuffer(self.t1, dtype=float).copy(),
            "count": np.frombuffer(self.count, dtype=np.int_).copy(),
        }
