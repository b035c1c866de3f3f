"""Measuring the layers of the program from outside it.

Two instruments, both switched on only for the traced pass of a run:

* :class:`SpanRecorder` wraps public entry points at runtime (a class
  method or a module function) and records one span per call: name,
  thread, start, end, parent span and an optional number taken from the
  return value.  Spans stay in memory and are written out when the run
  ends.  Every wrapper is removed again by :meth:`SpanRecorder.restore`.
* :func:`layer_profile` turns a deterministic :mod:`cProfile` pass into
  self time per layer: each function's self time goes to the
  ``repro.<package>`` that owns its file; numpy, the interpreter's
  built-in functions and the standard library get rows of their own.
  The profiler's clock is wall time, so a blocking call (a socket read,
  a sleep) counts as self time of a built-in.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pstats
import sysconfig
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

#: Profile rows besides the ``repro`` packages: numpy (its Python files
#: and its C functions), the interpreter's other C functions, the
#: standard library's Python files, and everything else (this benchmark).
EXTRA_LAYERS = ("numpy", "builtins", "stdlib", "other")


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    thread: str
    start: float
    end: float
    #: A number read off the call's return value (see SpanRecorder.wrap).
    value: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records a span around every call of the entry points it wraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             value: Optional[Callable[[object], float]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``value``, when given, maps the call's return value to the
        number stored on the span (a hit flag, a count of keys).
        """
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()

            def finish(noted: Optional[float]) -> None:
                spans.append(Span(
                    span_id, parent, name, threading.current_thread().name,
                    start, time.perf_counter(), noted))
                stack.pop()

            try:
                result = original(*args, **kwargs)
            except BaseException:
                finish(None)                # a failed call is a span too
                raise
            finish(None if value is None else value(result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped entry point back, newest wrapper first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- queries ----------------------------------------------------------------------
    def main_thread(self, name: str) -> list[Span]:
        """The spans called ``name`` recorded on the main thread."""
        main = threading.main_thread().name
        return [span for span in self.spans
                if span.name == name and span.thread == main]

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(extra, spans=[asdict(span) for span in self.spans])
        path.write_text(json.dumps(record, indent=1, sort_keys=True))


def layer_of(filename: str, function: str, dirs: dict[str, str]) -> str:
    """The layer that owns one profiled function; ``dirs`` maps
    ``repro``, ``numpy``, ``site`` (installed packages) and ``stdlib`` to
    their directories."""
    if filename == "~":                       # a C function
        return "numpy" if "numpy" in function else "builtins"
    path = os.path.abspath(filename)
    if path.startswith(dirs["repro"]):
        package = path[len(dirs["repro"]):].split(os.sep)
        return package[0] if len(package) > 1 else "other"
    if path.startswith(dirs["numpy"]):
        return "numpy"
    if path.startswith(dirs["site"]):
        return "other"
    if path.startswith(dirs["stdlib"]):
        return "stdlib"
    return "other"


def layer_profile(profile, layers: tuple[str, ...]) -> dict[str, float]:
    """Self seconds per layer of a finished ``cProfile.Profile``.

    ``layers`` lists the ``repro`` packages to report; every layer in it
    and in :data:`EXTRA_LAYERS` gets a row, zero when nothing ran there.
    """
    import numpy
    import repro
    dirs = {"repro": os.path.dirname(os.path.abspath(repro.__file__)),
            "numpy": os.path.dirname(os.path.abspath(numpy.__file__)),
            "site": os.path.abspath(sysconfig.get_paths()["purelib"]),
            "stdlib": os.path.abspath(sysconfig.get_paths()["stdlib"])}
    dirs = {name: path + os.sep for name, path in dirs.items()}
    totals = dict.fromkeys(layers + EXTRA_LAYERS, 0.0)
    for (filename, _, function), row in pstats.Stats(profile).stats.items():
        layer = layer_of(filename, function, dirs)
        totals[layer if layer in totals else "other"] += row[2]
    return totals
