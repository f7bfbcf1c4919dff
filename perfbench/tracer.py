"""In-memory spans around the public functions of the entrodual modules.

install() replaces every public function of the package modules, wherever a
package module binds it by name, and a fixed set of methods on their classes,
with a wrapper that records one span per call: its name, the index of the
enclosing span, start and end from perf_counter, and a work count (columns
for SymOperator.apply, probe columns for draw_probes). Spans stay in memory;
restore() puts every original object back, so untraced runs never pay for
the wrappers. Metrics are derived from the spans afterwards.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import time

MODULES = ["operators", "probes", "norms", "problems", "solver", "rounding",
           "datasets", "cli", "experiments"]

# (module, class, method) wrapped on the class itself, where the class defines it.
METHODS = [
    ("operators", "SymOperator", "apply"),
    ("operators", "SymOperator", "to_dense"),
    ("solver", "SolverTrace", "write_csv"),
    ("solver", "SolverTrace", "write_metadata"),
] + [
    ("problems", cls, meth)
    for cls in ("MaxCutProblem", "OTProblem", "StrongPermSyncProblem",
                "WeakPermSyncProblem")
    for meth in ("shifted_operator", "exact_gradient", "dense_eval",
                 "stochastic_gradient", "update", "feasibility_error")
]


def _apply_cols(_op, v, *args, **kwargs):
    return v.shape[1] if getattr(v, "ndim", 1) == 2 else 1


def _probe_cols(_n, num_samples, *args, **kwargs):
    return int(num_samples)


COUNTERS = {
    "operators.SymOperator.apply": _apply_cols,
    "probes.draw_probes": _probe_cols,
}


class Tracer:
    """Records spans as [name, parent index, start, end, count] lists."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(*args, **kwargs) if counter else 0
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, count]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every public function and the METHODS listed above."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"entrodual.{m}") for m in MODULES}
        bindings = [importlib.import_module("entrodual")] + list(mods.values())
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", []):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for owner in bindings:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = vars(cls).get(meth)
            if fn is None:
                continue
            self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def write_spans(path, spans) -> None:
    """One JSON object per line: name, parent, start, end, count."""
    with open(path, "w") as fh:
        for name, parent, t0, t1, count in spans:
            fh.write(json.dumps({"name": name, "parent": parent, "t0": t0,
                                 "t1": t1, "count": count}) + "\n")


# ---- aggregation ------------------------------------------------------------

class SpanIndex:
    """Totals, self times and nested counts over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                self.child_time[parent] += t1 - t0

    def _ancestors(self, i):
        parent = self.spans[i][1]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][1]

    def _select(self, patterns):
        names = {s[0] for s in self.spans}
        hit = {n for n in names
               if any(fnmatch.fnmatchcase(n, p) for p in patterns)}
        return [i for i, s in enumerate(self.spans) if s[0] in hit]

    def total_ms(self, patterns) -> float:
        """Summed duration of matching spans not nested in another match."""
        chosen = set(self._select(patterns))
        out = 0.0
        for i in chosen:
            if not any(a in chosen for a in self._ancestors(i)):
                _, _, t0, t1, _ = self.spans[i]
                out += t1 - t0
        return out * 1e3

    def self_ms(self, patterns) -> float:
        """Summed duration of matching spans minus their child spans."""
        out = 0.0
        for i in self._select(patterns):
            _, _, t0, t1, _ = self.spans[i]
            out += (t1 - t0) - self.child_time[i]
        return out * 1e3

    def calls(self, patterns) -> int:
        return len(self._select(patterns))

    def counts(self, patterns) -> int:
        return sum(self.spans[i][4] for i in self._select(patterns))

    def calls_within(self, patterns, outer) -> int:
        """Calls matching patterns that run inside a span matching outer."""
        chosen = set(self._select(outer))
        return sum(1 for i in self._select(patterns)
                   if any(a in chosen for a in self._ancestors(i)))
