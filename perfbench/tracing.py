"""Span tracing of qbm1d's public functions, from outside the package.

A :class:`Tracer` replaces a function by a wrapper at every place the
function is looked up, records one span per call (name, start, end,
parent) and bumps named counters, and puts every original back on
:meth:`Tracer.restore`.  Nothing inside ``src/`` changes.

A span's *self time* is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with reversible monkey-patching."""

    def __init__(self):
        self.names = []          # span name per name id
        self.layers = []         # layer per name id
        self._ids = {}
        self.spans = []          # [name_id, start, end, parent_index]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
        return nid

    def span(self, name):
        """Context manager recording one span around a block."""
        return _Span(self, self._name_id(name))

    def _enter(self, nid):
        parent = self._stack[-1] if self._stack else -1
        rec = [nid, _clock(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec, failed):
        rec[2] = _clock()
        self._stack.pop()
        if failed:
            # count a failure once, where it leaves its layer
            layer = self.layers[rec[0]]
            parent = rec[3]
            if parent < 0 or self.layers[self.spans[parent][0]] != layer:
                self.counts[layer + ".fail"] += 1

    # -- patching ----------------------------------------------------------

    def wrap(self, name, original, count=None, name_of=None, timed=True):
        """Return a tracing wrapper of ``original``.

        ``count(args, kwargs, result)`` returns ``{counter: increment}``;
        ``name_of(args, kwargs)`` returns a suffix that refines the span
        name per call.  Every call bumps ``<name>.calls``.  An untimed
        function records a span only where it is called from another
        layer; inside its own layer its time stays with the caller.
        """
        calls = name + ".calls"
        fixed = self._name_id(name)
        layer = self.layers[fixed]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if not timed and self._stack and \
                    self.layers[self.spans[self._stack[-1]][0]] == layer:
                result = original(*args, **kwargs)
                if count is not None:
                    self.counts.update(count(args, kwargs, result))
                return result
            nid = fixed if name_of is None else self._name_id(
                f"{name}.{name_of(args, kwargs)}")
            rec = self._enter(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._exit(rec, True)
                raise
            self._exit(rec, False)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def patch(self, owners, attr, name, **kw):
        """Replace ``attr`` on every owner (module or class) by one wrapper.

        All owners must hold the same object, so each lookup site of a
        name bound with ``from ... import`` is patched with it.
        """
        raw = [owner.__dict__[attr] for owner in owners]
        if any(r is not raw[0] for r in raw):
            raise RuntimeError(f"{attr} differs between its lookup sites")
        obj = raw[0]
        if isinstance(obj, classmethod):
            bound = getattr(owners[0], attr)
            new = staticmethod(self.wrap(name, bound, **kw))
        else:
            new = self.wrap(name, obj, **kw)
        for owner in owners:
            self._patches.append((owner, attr, obj))
            setattr(owner, attr, new)

    def restore(self):
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time of every recorded span, in span order."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def busy_by_name(self):
        """Summed self time per span name."""
        busy = Counter()
        for s, own in zip(self.spans, self.self_times()):
            busy[self.names[s[0]]] += own
        return busy

    def busy_by_layer(self):
        busy = Counter()
        for name, t in self.busy_by_name().items():
            busy[name.split(".", 1)[0]] += t
        return busy

    def save(self, path):
        """Write the spans as arrays: names, name id, start, end, parent."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2],
                            parent=arr[:, 3].astype(np.int64))


class _Span:
    def __init__(self, tracer, nid):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._rec = self._tracer._enter(self._nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._exit(self._rec, exc_type is not None)
        return False
