"""Outside-in span tracer for the posetrep modules.

The tracer patches the program from outside: every function defined in a
traced module is replaced by a wrapper in *every* traced module that binds
it (``from .linalg import solution_space`` in ``sspace`` is a second
binding of the same function), and every method of every class defined in
a traced module is replaced on the class.  Nothing inside ``src/`` knows it
is being traced.

Each wrapped call is a span with a start, an end and a parent (the span
that was open when it started).  Self time is the span's duration minus
the durations of its child spans, accumulated per function, so module self
times plus the benchmark's own time add up to the traced wall time.
Spans of at least ``KEEP_S`` seconds are kept in memory with their parent
links and written out by ``dump``; because a child never outlasts its
parent, the kept spans form a closed tree.  Shorter spans still count
towards every total.

Generator functions are left unwrapped: their bodies run in the frame of
whoever iterates them, which in posetrep is always a function of the same
module, so their time lands in the right module anyway.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

KEEP_S = 1e-3
# Methods whose wrapping would only add noise or break object protocols.
_SKIP_METHODS = {"__setattr__", "__getattr__", "__getattribute__", "__repr__",
                 "__init_subclass__", "__class_getitem__", "__del__"}


class Tracer:
    """Wraps the functions of ``modules`` (layer name -> module object).

    ``observers`` maps "layer.qualname" to ``fn(args, kwargs, result,
    self_s)``, called after each completed call of that function; the
    benchmark uses them to count work at the layer boundary.  Functions
    and classes named in ``skip`` ("layer.qualname" or "layer.Class") stay
    unwrapped, and their time counts in their caller's span.
    """

    def __init__(self, modules, observers=None, skip=()):
        self.modules = dict(modules)
        self.observers = dict(observers or {})
        self.skip = set(skip)
        self.names = []          # fid -> "layer.qualname"
        self.layers = []         # fid -> layer
        self.calls = []          # fid -> completed calls
        self.self_s = []         # fid -> summed self time
        self.incl_s = []         # fid -> inclusive time of outermost calls
        self.spans = []          # kept spans: (id, parent id, fid, start, end)
        self.n_spans = 0
        self.on = True           # wrappers pass straight through while False
        self.root_child_s = 0.0  # time inside top-level wrapped calls
        self._stack = []         # open frames: [child time, span id]
        self._depth = []         # fid -> recursion depth
        self._undo = []          # (owner, attribute, original value)
        self._wrapped = {}       # original function -> wrapper

    # installation ---------------------------------------------------------

    def install(self):
        by_module = {m.__name__: layer for layer, m in self.modules.items()}
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ in by_module:
                    home = by_module[obj.__module__]
                    if (not inspect.isgeneratorfunction(obj)
                            and f"{home}.{obj.__qualname__}" not in self.skip):
                        wrapper = self._wrapper_for(obj, home, obj.__qualname__)
                        self._patch(module, attr, obj, wrapper)
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and f"{layer}.{obj.__name__}" not in self.skip):
                    self._wrap_class(layer, obj)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._wrapped.clear()

    def _patch(self, owner, attr, original, replacement):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP_METHODS:
                continue
            qual = f"{cls.__name__}.{attr}"
            if f"{layer}.{qual}" in self.skip:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    self._patch(cls, attr, raw,
                                type(raw)(self._wrapper_for(fn, layer, qual)))
            elif isinstance(raw, property):
                if raw.fget is not None:
                    self._patch(cls, attr, raw,
                                property(self._wrapper_for(raw.fget, layer, qual),
                                         raw.fset, raw.fdel, raw.__doc__))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, attr, raw, self._wrapper_for(raw, layer, qual))

    def _wrapper_for(self, fn, layer, qual):
        wrapper = self._wrapped.get(fn)
        if wrapper is not None:
            return wrapper
        fid = len(self.names)
        name = f"{layer}.{qual}"
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self._depth.append(0)
        observer = self.observers.get(name)
        stack, clock = self._stack, time.perf_counter
        calls, self_s, incl_s, depth, spans = (self.calls, self.self_s, self.incl_s,
                                               self._depth, self.spans)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer.n_spans
            tracer.n_spans = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            depth[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[fid] -= 1
                dur = end - start
                own = dur - frame[0]
                calls[fid] += 1
                self_s[fid] += own
                if not depth[fid]:
                    incl_s[fid] += dur
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent_id = parent[1]
                else:
                    tracer.root_child_s += dur
                    parent_id = -1
                if dur >= KEEP_S:
                    spans.append((sid, parent_id, fid, start, end))
            if observer is not None:
                observer(args, kwargs, result, own)
            return result

        self._wrapped[fn] = wrapper
        return wrapper

    def reset(self):
        """Forget every call so far; the wrappers stay installed."""
        # In place: the wrappers hold these lists.
        self.calls[:] = [0] * len(self.calls)
        self.self_s[:] = [0.0] * len(self.self_s)
        self.incl_s[:] = [0.0] * len(self.incl_s)
        self.spans.clear()
        self.n_spans = 0
        self.root_child_s = 0.0

    # results --------------------------------------------------------------

    def by_name(self, name):
        """(calls, self seconds, inclusive seconds) of one wrapped function;
        zeros for a function the program no longer has."""
        if name not in self.names:
            return 0, 0.0, 0.0
        fid = self.names.index(name)
        return self.calls[fid], self.self_s[fid], self.incl_s[fid]

    def layer_totals(self):
        """layer -> [calls, self seconds] over every wrapped function."""
        out = {layer: [0, 0.0] for layer in self.modules}
        for fid, layer in enumerate(self.layers):
            out[layer][0] += self.calls[fid]
            out[layer][1] += self.self_s[fid]
        return out

    def dump(self, path, wall_s):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "wall_s": wall_s,
                       "spans_total": self.n_spans, "keep_s": KEEP_S,
                       "columns": ["id", "parent", "fid", "start", "end"],
                       "spans": self.spans}, fh)
