"""In-memory span tracer that wraps quniverse functions from outside.

Each wrapped call records one span: name, start, end and the span that
was open when it began.  Spans stay in memory until :meth:`Tracer.save`.
A span's self time is its duration minus the durations of its direct
children, so self times of nested layers never double count.

The wrappers are installed where callers look the name up: a function is
replaced under every module attribute of the ``quniverse`` package that
holds it (``iel.extended_state``, ``cli.mean_energy`` and friends are
imported by name), a class is traced through its ``__init__``, and a
registry entry is replaced inside its dict.  :meth:`Tracer.restore` puts
every original back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

import numpy as np

PACKAGE = "quniverse"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: closed spans as ``(name_id, span_id, parent_id, start, end)``
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None, on_raise=None):
        """``fn`` recording one span per call.

        ``on_return(args, result)`` and ``on_raise(args, exc)`` run after the
        span closes, so their cost is not charged to ``fn``.  A signal
        handler may run a traced call between any two bytecodes here: span
        ids come from one atomic ``next`` and a span is stored by one
        ``append`` when it closes, so such a call nests cleanly.
        """
        nid = self._name_id(name)
        spans, ids, stack = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((nid, span, parent, start, end))
                if on_raise is not None:
                    on_raise(args, exc)
                raise
            end = clock()
            stack.pop()
            spans.append((nid, span, parent, start, end))
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _set(self, owner, key, value):
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def patch_function(self, name: str, fn, **hooks):
        """Replace ``fn`` under every module attribute of the package bound to it."""
        traced = self.wrap(name, fn, **hooks)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.partition(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)
                    hits += 1
        if not hits:
            raise LookupError(f"{name}: no module attribute holds {fn!r}")

    def patch_class(self, name: str, cls, **hooks):
        """Trace every construction of ``cls``, wherever it is called from."""
        self._set(cls, "__init__", self.wrap(name, cls.__init__, **hooks))

    def patch_entry(self, name: str, registry: dict, key, **hooks):
        """Trace a callable held in a registry dict."""
        self._set(registry, key, self.wrap(name, registry[key], **hooks))

    def restore(self):
        """Put back every patched name, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def arrays(self):
        """Closed spans as ``(name_id, parent_row, start, end)`` arrays.

        Rows are ordered by span id; ``parent_row`` is -1 for a root span.
        """
        table = np.array(sorted(self.spans, key=lambda row: row[1]), dtype=float).reshape(-1, 5)
        span_id = table[:, 1].astype(np.int64)
        row_of = {int(sid): row for row, sid in enumerate(span_id)}
        parent = np.array([row_of.get(int(p), -1) for p in table[:, 2]], dtype=np.int64)
        return table[:, 0].astype(np.int32), parent, table[:, 3], table[:, 4]

    def totals(self) -> dict:
        """Per name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
        name_id, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_time = duration - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def save(self, path):
        """Write the span table and the name list as one ``.npz`` file."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            parent=parent, start=start, end=end,
        )
