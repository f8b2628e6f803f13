"""Spans around calls into the program's layers, recorded from outside it.

A :class:`Tracer` replaces public functions, methods and properties of the
``repro`` package with timing wrappers, and puts the originals back on
:meth:`Tracer.unpatch` or :meth:`Tracer.close`.  Each wrapped call is a span: the tracer counts its
calls, its total time and its *self* time (total minus the time spent in
wrapped calls it made), per span name.  Spans nest per thread.

Pool workers are forked from the benchmark process, so they inherit the
wrappers.  After the fork each worker starts from empty records, and when
the worker exits normally it writes its records as JSON into the tracer's
``worker_dir``; :func:`merge_exports` folds them into the parent's.

Besides spans the tracer holds two plain containers that hooks fill:
``samples`` (name -> list of numbers) and ``counts`` (name -> number).
A hook is called with the wrapped call's result and its duration in ns.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import threading
import time
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, List, Optional

Hook = Callable[[Any, int], None]


class Tracer:
    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: Callables run before :meth:`export`; they may update ``counts``.
        self.on_export: List[Callable[[], None]] = []
        self.reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def reset(self) -> None:
        """Forget every record (the wrappers stay in place)."""
        with self._lock:
            #: span name -> [calls, total_ns, self_ns, errors]
            self.spans: Dict[str, List[int]] = {
                name: [0, 0, 0, 0] for name in getattr(self, "spans", {})
            }
            #: Time inside outermost spans, summed over threads.
            self.top_ns = 0
            self.samples: Dict[str, List[float]] = {}
            self.counts: Dict[str, float] = {}
            #: Objects hooks keep until ``on_export`` reads them.
            self.retained: List[Any] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        self.spans.setdefault(name, [0, 0, 0, 0])
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                elapsed = clock() - start
                child = stack.pop()
                with tracer._lock:
                    record = tracer.spans[name]
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - child
                    record[3] += failed
                    if not stack:
                        tracer.top_ns += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(result, elapsed)
            return result

        return wrapper

    def method(
        self, name: str, owner: type, attr: str, hook: Optional[Hook] = None
    ) -> None:
        """Wrap ``owner.attr``: a function, or a property through its getter.

        A property must be wrapped through ``fget``: wrapping the property
        object as if it were a method makes every access raise.
        """
        descriptor = next(
            klass.__dict__[attr] for klass in owner.__mro__
            if attr in klass.__dict__
        )
        own = attr in owner.__dict__
        if isinstance(descriptor, property):
            replacement = property(
                self._wrap(name, descriptor.fget, hook),
                descriptor.fset,
                descriptor.fdel,
                descriptor.__doc__,
            )
        elif callable(descriptor) and not isinstance(
            descriptor, (staticmethod, classmethod)
        ):
            replacement = self._wrap(name, descriptor, hook)
        else:
            raise TypeError(f"cannot wrap {owner.__name__}.{attr}")
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, descriptor, own))

    def function(
        self, name: str, module, attr: str, hook: Optional[Hook] = None
    ) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds it.

        Modules that did ``from x import f`` hold their own reference, so
        every loaded ``repro`` module whose ``attr`` is the same function
        object gets the wrapper.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original, True))

    def mark(self) -> int:
        """A point to :meth:`unpatch` back to."""
        return len(self._patches)

    def unpatch(self, mark: int = 0) -> None:
        """Put back every original wrapped since ``mark``, last first."""
        while len(self._patches) > mark:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def close(self) -> None:
        """Put every original back."""
        self.unpatch(0)

    # -- records --------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """This process's records as plain data."""
        for update in self.on_export:
            update()
        with self._lock:
            return {
                "spans": {name: list(rec) for name, rec in self.spans.items()},
                "top_ns": self.top_ns,
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counts": dict(self.counts),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }

    def _after_fork(self) -> None:
        # Runs in a freshly started multiprocessing child, after the
        # child's finalizer registry is cleared.
        if not self._patches:
            return
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()
        mp_util.Finalize(self, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"w-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)
        os.replace(path + ".tmp", path)


def collect_worker_exports(worker_dir: str) -> List[Dict[str, Any]]:
    """Read and remove every worker export written so far."""
    exports = []
    for entry in sorted(os.listdir(worker_dir)):
        if entry.startswith("w-") and entry.endswith(".json"):
            path = os.path.join(worker_dir, entry)
            with open(path, encoding="utf-8") as handle:
                exports.append(json.load(handle))
            os.remove(path)
    return exports


def empty_records() -> Dict[str, Any]:
    return {"spans": {}, "top_ns": 0, "samples": {}, "counts": {}, "maxrss_kb": 0}


def merge_exports(into: Dict[str, Any], other: Dict[str, Any], main: bool = True) -> None:
    """Fold ``other``'s records into ``into``: spans, samples and counts add.

    Only exports of the ``main`` process add their time inside outermost
    spans, which is compared with that process's wall time, and raise the
    peak RSS; peak memory of other processes is combined by the caller,
    who knows which processes lived together.
    """
    for name, rec in other["spans"].items():
        mine = into["spans"].setdefault(name, [0, 0, 0, 0])
        for index, value in enumerate(rec):
            mine[index] += value
    for name, values in other["samples"].items():
        into["samples"].setdefault(name, []).extend(values)
    for name, value in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    if main:
        into["top_ns"] += other["top_ns"]
        into["maxrss_kb"] = max(into["maxrss_kb"], other["maxrss_kb"])
