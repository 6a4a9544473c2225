"""Outside-in span tracer for the benchmark.

The library has no trace hooks of its own, so this module wraps its public
functions from outside: `install` replaces a function object with a wrapper
under every name that refers to it in the `equiflow.*` module namespaces
(and in `scipy.linalg` for `expm`).  Calls made inside the library look the
name up in their module globals at call time, so they go through the
wrapper too.  `uninstall` puts the original objects back.

Each call records one span (name, start, end, parent) in compact in-memory
arrays; per-name calls, inclusive time and self time (duration minus the
time covered by child spans) are accumulated as the spans close.  Nothing
is written until `save` is called at the end of a run.
"""

import functools
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls = []
        self.incl_s = []
        self.self_s = []
        self.counts = {}
        self._stack = []  # [span index, time covered by children]
        self._restore = []

    # --- recording --------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.incl_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def enter(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def exit(self, nid):
        t = time.perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        self.calls[nid] += 1
        self.incl_s[nid] += dur
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def add(self, counter, n):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def wrap(self, name, fn, after=None, name_of=None):
        """Wrapper recording a span per call of `fn`.

        `name_of(args, kwargs)` picks a per-call span name suffix (for example
        a mode argument); `after(tracer, args, kwargs, result)` adds counters.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = nid if name_of is None else tracer.name_id(f"{name}.{name_of(args, kwargs)}")
            tracer.enter(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(sid)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    # --- installation -----------------------------------------------------

    def install(self, targets):
        """Rebind every reference to each target function.

        `targets` is a list of (module, attribute, span name, after, name_of).
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "equiflow" or n.startswith("equiflow."))]
        for module, attr, name, after, name_of in targets:
            orig = getattr(module, attr)
            wrapper = self.wrap(name, orig, after, name_of)
            holders = [module] + [m for m in modules if m is not module]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, orig))

    def uninstall(self):
        while self._restore:
            holder, key, orig = self._restore.pop()
            setattr(holder, key, orig)

    # --- results ----------------------------------------------------------

    def snapshot(self):
        """Per-name (calls, inclusive seconds, self seconds) plus counters."""
        table = {n: (self.calls[i], self.incl_s[i], self.self_s[i])
                 for i, n in enumerate(self.names)}
        return table, dict(self.counts)

    def totals(self):
        """Call count per span name plus every counter, as one dict."""
        out = dict(zip(self.names, self.calls))
        out.update(self.counts)
        return out

    def save(self, path):
        """Write every span as a compressed NumPy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
