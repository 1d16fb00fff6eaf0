"""Span recorder installed into a served process before it serves.

Wraps every public synchronous function and method defined in the
layer modules below, from outside the program: nothing under ``src/``
changes. Each call is a span; a per-thread stack attributes a span's
time to its parent, so *self time* is the span's duration minus the
time its child spans cover. Spans are aggregated in memory per name
(calls, total ns, self ns, and up to two unit counts for the spans
whose layer metric needs one) and written out as one JSON document
each time the process receives ``SIGUSR1``; the benchmark diffs two
such dumps to get the numbers for exactly its measuring window.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import signal
import sys
import threading
import time
import weakref

LAYER_MODULES = (
    "repro.service.protocol",
    "repro.service.session",
    "repro.service.snapshot",
    "repro.core.pool",
    "repro.core.online",
    "repro.persistence",
    "repro.telemetry",
    "repro.cluster.dispatcher",
)

_STATS = {}  # span name -> [calls, total_ns, self_ns, units_a, units_b]
_JOURNALS = weakref.WeakSet()


class _Stack(threading.local):
    def __init__(self) -> None:
        self.frames = []


_LOCAL = _Stack()


def _segments(args, kwargs):
    segments = args[1] if len(args) > 1 else kwargs["segments"]
    return sum(len(segment[1]) for segment in segments), len(segments)


def _records_at(position):
    """Sizer counting the ``pcs`` argument at ``position`` (self is 0)."""
    def sizer(args, kwargs):
        pcs = args[position] if len(args) > position else kwargs["pcs"]
        return len(pcs), 0
    return sizer


def _journal(args, kwargs):
    _JOURNALS.add(args[0])
    return 0, 0


#: Unit counts for spans whose layer metric is per record or per segment.
SIZERS = {
    "repro.core.pool.TrackerPool.observe_fanin": _segments,
    "repro.core.pool.TrackerPool.observe_batch": _records_at(2),
    "repro.core.online.PhaseTracker.observe_batch": _records_at(1),
    "repro.persistence.manager.PersistenceManager.log_observe":
        _records_at(2),
    "repro.persistence.journal.Journal.append": _journal,
    "repro.persistence.journal.Journal.sync": _journal,
}


def _wrap(name, fn):
    rec = _STATS.setdefault(name, [0, 0, 0, 0, 0])
    sizer = SIZERS.get(name)
    clock = time.perf_counter_ns
    local = _LOCAL

    @functools.wraps(fn)
    def span(*args, **kwargs):
        frames = local.frames
        frames.append(0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            child = frames.pop()
            if frames:
                frames[-1] += elapsed
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - child
            if sizer is not None:
                units = sizer(args, kwargs)
                rec[3] += units[0]
                rec[4] += units[1]

    return span


def _wrappable(fn) -> bool:
    return inspect.isfunction(fn) and not (
        inspect.iscoroutinefunction(fn)
        or inspect.isgeneratorfunction(fn)
        or inspect.isasyncgenfunction(fn)
    )


def _modules():
    for name in LAYER_MODULES:
        module = importlib.import_module(name)
        yield module
        for info in pkgutil.iter_modules(getattr(module, "__path__", [])):
            yield importlib.import_module(f"{name}.{info.name}")


def install() -> None:
    """Wrap the layer modules' public functions."""
    replaced = {}
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if _wrappable(value) and value.__module__ == module.__name__:
                wrapped = _wrap(f"{module.__name__}.{attr}", value)
                setattr(module, attr, wrapped)
                replaced[id(value)] = (value, wrapped)
            elif (inspect.isclass(value)
                  and value.__module__ == module.__name__):
                _wrap_class(module.__name__, value)
    # Rebind names other modules imported with ``from x import f``.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def _wrap_class(module_name: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{module_name}.{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod) and _wrappable(raw.__func__):
            setattr(cls, attr, staticmethod(_wrap(name, raw.__func__)))
        elif isinstance(raw, classmethod) and _wrappable(raw.__func__):
            setattr(cls, attr, classmethod(_wrap(name, raw.__func__)))
        elif _wrappable(raw):
            setattr(cls, attr, _wrap(name, raw))


def dump(directory: str) -> str:
    """Write the current aggregates; returns the file path."""
    dump.sequence += 1
    path = os.path.join(
        directory, f"trace-{os.getpid()}-{dump.sequence}.json"
    )
    document = {
        "pid": os.getpid(),
        "sequence": dump.sequence,
        "spans": {name: list(rec) for name, rec in _STATS.items()
                  if rec[0]},
        "journal_fsyncs": sum(j.fsyncs for j in list(_JOURNALS)),
    }
    with open(path + ".tmp", "w") as handle:
        json.dump(document, handle)
    os.replace(path + ".tmp", path)
    return path


dump.sequence = 0


def activate(directory: str) -> None:
    """Install the wrappers and dump on every ``SIGUSR1``."""
    install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump(directory))
