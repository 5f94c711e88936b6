"""Per-layer tracing installed from outside the package.

A `Tracer` rebinds the public functions and methods of the package's layer
modules to wrappers that record one span per call: name, op id, parent span,
start and end.  The package itself is not edited.  A wrapper replaces the
original wherever a package namespace holds it by name (module attributes,
including the re-exports of `annulus_harmonics`, and module-level dicts such
as the suite registry in `reports`), and leaving the `with` block puts every
original back.  Spans stay in memory; `save` writes them out once the run is
over.

A few wrappers also count work where it happens: the mode-angle products
and distinct (series, rho, M) triples of `circle_fields`, the integrand
nodes of `radial_integrate`, the distinct series given to
`quadratic_mean_profile`, and every evaluation of a `RadialProfile` callable
(recorded as `means.profile_eval` spans with the number of radii).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path
from types import ModuleType

import numpy as np

from specs import LAYERS

PACKAGE = "annulus_harmonics"
OP_SPAN = "bench.op"
PROFILE_EVAL = "means.profile_eval"


def series_key(h) -> int:
    """Content hash of a series over its dataclass fields, so equal
    coefficients count as one series whatever arrays hold them."""
    return hash(tuple(
        value.tobytes() if isinstance(value, np.ndarray) else value
        for value in (getattr(h, f.name) for f in dataclasses.fields(h))
    ))


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the part of it that its children cover.

    `parents[i]` is the index of span i's parent, or -1 for a root.  Child
    intervals are clipped to the parent and merged, so overlapping children
    are not counted twice.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(starts.size)
    kids = np.flatnonzero(parents >= 0)
    order = kids[np.lexsort((starts[kids], parents[kids]))]
    current, reach = -1, -math.inf
    for k in order:
        p = parents[k]
        if p != current:
            current, reach = p, -math.inf
        lo = max(starts[k], starts[p], reach)
        hi = min(ends[k], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach = max(reach, hi)
    return ends - starts - covered


def _package_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _public_callables(module: ModuleType):
    """(qualified name, owner, attribute, raw object) for every public
    function defined in `module` and every public method of its public
    classes.  Generator functions are skipped: a span would end before the
    generator runs."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw


class Tracer:
    """Records spans for calls into the package while installed.

    Use as a context manager around the traced ops; set `op` to the op
    index before each op and back to -1 after it.
    """

    def __init__(self) -> None:
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_op: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.raised: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._profile_type = None
        self._circle_fields_signature = None

    # -- span recording -------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func, hook=None):
        """Return `func` wrapped so that each call records a span `name`.

        `hook(args, kwargs)` may return replacement (args, kwargs, finish);
        `finish(result_or_None, raised)` runs after the call, outside the
        span's end time.
        """
        nid = self._name_id(name)
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            finish = None
            if hook is not None:
                args, kwargs, finish = hook(args, kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            result = None
            ok = False
            t0 = perf()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                if not ok:
                    self.raised[name] += 1
                if finish is not None:
                    result = finish(result, not ok)
            return result

        wrapper.__traced__ = True
        return wrapper

    # -- counting hooks -------------------------------------------------

    def _note_distinct(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def _circle_fields_hook(self, args, kwargs):
        if len(args) >= 3:
            h, rho, thetas = args[:3]
        else:
            bound = self._circle_fields_signature.bind(*args, **kwargs).arguments
            h, rho, thetas = bound["h"], bound["rho"], bound["thetas"]
        M = int(np.size(thetas))
        self.counts["series.circle_fields.mode_angle_products"] += M * 2 * h.N
        self._note_distinct("series.circle_fields", (series_key(h), float(rho), M))
        return args, kwargs, None

    def _radial_integrate_hook(self, args, kwargs):
        sizes: list[int] = []
        g = args[0] if args else kwargs["g"]

        def counted(r):
            sizes.append(int(np.size(r)))
            return g(r)

        if args:
            args = (counted,) + tuple(args[1:])
        else:
            kwargs = {**kwargs, "g": counted}

        def finish(result, raised):
            self.counts["quadrature.radial_integrate.nodes_evaluated"] += sum(sizes)
            if not raised and sizes:
                self.counts["quadrature.radial_integrate.nodes_accepted"] += sizes[-1]
            return result

        return args, kwargs, finish

    def _profile_hook(self, name: str):
        def hook(args, kwargs):
            if name == "means.quadratic_mean_profile":
                h = args[0] if args else kwargs["h"]
                self._note_distinct(name, series_key(h))

            def finish(result, raised):
                if raised or type(result) is not self._profile_type:
                    return result
                return self._wrap_profile(result)

            return args, kwargs, finish
        return hook

    def _wrap_profile(self, profile):
        def evaluator(func):
            def hook(args, kwargs):
                rho = args[0] if args else kwargs["rho"]
                self.counts[PROFILE_EVAL + ".radii"] += int(np.size(rho))
                return args, kwargs, None
            return self.wrap(PROFILE_EVAL, func, hook)

        if getattr(profile.value, "__traced__", False):
            return profile
        return dataclasses.replace(
            profile, value=evaluator(profile.value),
            deriv1=evaluator(profile.deriv1), deriv2=evaluator(profile.deriv2),
        )

    def _hook_for(self, name: str):
        if name == "series.circle_fields":
            return self._circle_fields_hook
        if name == "quadrature.radial_integrate":
            return self._radial_integrate_hook
        if name.startswith("means."):
            return self._profile_hook(name)
        return None

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        missing = [layer for layer in LAYERS if f"{PACKAGE}.{layer}" not in sys.modules]
        if missing:
            raise RuntimeError(f"layer modules not imported: {missing}")
        self._profile_type = by_name["means"].RadialProfile
        self._circle_fields_signature = inspect.signature(by_name["series"].circle_fields)
        replaced: dict[int, object] = {}
        try:
            for layer in LAYERS:
                for name, owner, attr, raw in _public_callables(by_name[layer]):
                    if isinstance(owner, type):
                        if isinstance(raw, (classmethod, staticmethod)):
                            new = type(raw)(self.wrap(name, raw.__func__, self._hook_for(name)))
                        else:
                            new = self.wrap(name, raw, self._hook_for(name))
                        self._restore.append((setattr, owner, attr, raw))
                        setattr(owner, attr, new)
                    else:
                        replaced[id(raw)] = (raw, self.wrap(name, raw, self._hook_for(name)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced and replaced[id(value)][0] is value:
                        self._restore.append((setattr, module, attr, value))
                        setattr(module, attr, replaced[id(value)][1])
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if id(item) in replaced and replaced[id(item)][0] is item:
                                self._restore.append((dict.__setitem__, value, key, item))
                                value[key] = replaced[id(item)][1]
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original function, method and dict entry back."""
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "op": np.asarray(self.span_op, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "start": np.asarray(self.span_start, dtype=np.float64),
            "end": np.asarray(self.span_end, dtype=np.float64),
        }

    def save(self, path: Path, meta: dict) -> None:
        """Write the spans and the name table to a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names),
                            meta=np.asarray(json.dumps(meta)), **self.arrays())

    def summary(self) -> dict:
        """Per-name totals over the spans recorded inside ops.

        Returns {"ops": n, "op_s": total op span time, "top_s": total time of
        the spans directly under an op span, "names": {name: {"calls",
        "self_s", "raised"}}, "counts": ..., "distinct": {name: size}}.
        """
        a = self.arrays()
        selfs = self_times(a["start"], a["end"], a["parent"])
        in_op = a["op"] >= 0
        op_id = self._ids.get(OP_SPAN, -1)
        is_op = in_op & (a["name"] == op_id)
        parent_is_op = np.zeros_like(is_op)
        has_parent = a["parent"] >= 0
        parent_is_op[has_parent] = is_op[a["parent"][has_parent]]
        names = {}
        for nid, name in enumerate(self.names):
            mask = in_op & (a["name"] == nid)
            names[name] = {
                "calls": int(np.count_nonzero(mask)),
                "self_s": float(np.sum(selfs[mask])),
                "raised": int(self.raised[name]),
            }
        dur = a["end"] - a["start"]
        return {
            "ops": int(np.count_nonzero(is_op)),
            "op_s": float(np.sum(dur[is_op])),
            "top_s": float(np.sum(dur[in_op & parent_is_op])),
            "self_sum_s": float(np.sum(selfs[in_op])),
            "names": names,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
