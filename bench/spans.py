"""Span recording around calls into the package's layers, and self time.

A :class:`Tracer` wraps every public function of the layer modules and
rebinds each name in every package module that holds it (``maps.induce``
and ``search.induce`` both get the wrapper), so calls made inside the
package are seen too.  A span is one row ``(id, parent, op, name, start,
end)`` with nanosecond times; ``op`` is the id of the enclosing op span,
which all spans of one op share.  Rows are kept in memory and analysed or
written out when the run ends.
"""

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("search", "maps", "states", "discord", "linalg", "jsonio", "cli")
PACKAGE = "inducedmaps"
OP = "op"

# Row layout of the span table.
SID, PARENT, OPID, NAME, START, END = range(6)


class Tracer:
    """Records nested spans while ``active``; names are ``layer.function``."""

    def __init__(self, outcomes=None):
        self.names = [OP]
        self._index = {OP: 0}
        self._rows = array("q")
        self._stack = [0]
        self._op = 0
        self._next = 1
        self.active = False
        # name -> callable(result) -> label; labels are counted per name.
        self._outcomes = dict(outcomes or {})
        self.outcome_counts = {}
        # (module, attribute, original, wrapper) for every rebound name.
        self._bindings = []

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _enter(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, idx, t0):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self._rows.extend((sid, parent, self._op, idx, t0, t1))

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        idx = self._name_index(name)
        outcome = self._outcomes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid, parent = self._enter()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid, parent, idx, t0)
            if outcome is not None:
                key = (name, outcome(result))
                self.outcome_counts[key] = self.outcome_counts.get(key, 0) + 1
            return result

        return traced

    @contextmanager
    def op(self):
        """Root span of one op; spans recorded inside carry its id."""
        sid, parent = self._enter()
        self._op = sid
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(sid, parent, 0, t0)
            self._op = 0

    @contextmanager
    def paused(self):
        """Run a block (such as an output check) without recording spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def install(self):
        """Rebind every public layer function in every package module.

        The wrappers are built on the first call; later calls only rebind,
        so a run can switch tracing on and off between ops cheaply.
        """
        if not self._bindings:
            wrappers = {}
            for layer in LAYERS:
                mod = sys.modules[f"{PACKAGE}.{layer}"]
                for attr, obj in vars(mod).items():
                    if (
                        not attr.startswith("_")
                        and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                    ):
                        wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for modname, mod in list(sys.modules.items()):
                if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                    continue
                for attr, obj in vars(mod).items():
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        self._bindings.append((mod, attr, *wrappers[id(obj)]))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def table(self):
        """Span rows as an ``(n, 6)`` int64 array."""
        return np.frombuffer(self._rows, dtype=np.int64).reshape(-1, 6).copy()

    def save(self, path):
        np.savez_compressed(path, spans=self.table(), names=np.array(self.names))


class SpanTable:
    """Derived quantities of a span table: durations, self time, nesting."""

    def __init__(self, rows, names):
        rows = rows[np.argsort(rows[:, SID], kind="stable")]
        self.names = list(names)
        self.sid = rows[:, SID]
        self.name = rows[:, NAME]
        self.op = rows[:, OPID]
        self.dur = rows[:, END] - rows[:, START]
        # Row of each span's parent, -1 for top-level spans.
        parent_ids = rows[:, PARENT]
        at = np.searchsorted(self.sid, parent_ids).clip(max=len(rows) - 1)
        self.parent = np.where(self.sid[at] == parent_ids, at, -1)
        children = np.zeros(len(rows), dtype=np.int64)
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - children
        # Ids are handed out at span start, so a parent's row precedes its
        # children's and one pass in row order gives every depth.
        depth = np.zeros(len(rows), dtype=np.int64)
        for i, p in enumerate(self.parent):
            if p >= 0:
                depth[i] = depth[p] + 1
        self._levels = [np.flatnonzero(depth == d) for d in range(1, int(depth.max(initial=0)) + 1)]

    def mask(self, predicate):
        """Rows whose span name satisfies ``predicate``."""
        hit = np.array([predicate(n) for n in self.names], dtype=bool)
        return hit[self.name]

    def outermost(self, in_set):
        """Rows in ``in_set`` with no ancestor in ``in_set``.

        Their durations sum to the time covered by the set's spans, with
        nested spans of the set counted once.
        """
        covered = np.zeros(len(in_set), dtype=bool)
        for rows in self._levels:
            p = self.parent[rows]
            covered[rows] = covered[p] | in_set[p]
        return in_set & ~covered

    @property
    def ops(self):
        return self.mask(lambda n: n == OP)

