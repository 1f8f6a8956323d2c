"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the program from the
benchmark's own files; nothing under ``src/`` is edited.  A wrapped call
records one span (name, start, end, parent, run id) while the tracer is
enabled and is a plain pass-through otherwise, so set-up and the
correctness checks never pollute the per-layer figures.

Spans are grouped under the *phase* the benchmark opened around them
(``setup``, ``collect``, ``analyze``, ``tick``, ``restart``).  A span's
self time is its duration minus the time covered by its child spans;
per ``(phase, name)`` the tracer keeps the summed self time and the call
count.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any


class Tracer:
    """Records spans for every patched call made inside a phase."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        #: ``(span_id, parent_id, phase, name, start, end)``; phases are
        #: root spans with ``parent_id == -1``.
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[tuple[str, str]] = Counter()
        #: Summed wall time of every phase, by phase name.
        self.phase_s: defaultdict[str, float] = defaultdict(float)
        # Open spans: [span_id, child_seconds].
        self._stack: list[list[Any]] = []
        self._phase = ""
        self._next_id = 0
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # -- recording -----------------------------------------------------

    def _open(self) -> list[Any]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any], name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        key = (self._phase, name)
        self.self_s[key] += duration - frame[1]
        self.calls[key] += 1
        self.spans.append(
            (frame[0], -1 if parent is None else parent[0], self._phase, name, start, end)
        )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Trace every patched call made inside the block under *name*."""
        if self._stack:
            raise RuntimeError(f"phase {name!r} opened inside another span")
        self._phase = name
        self.enabled = True
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(frame, name, start, end)
            self.phase_s[name] += end - start
            self.enabled = False

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return *fn* wrapped so that each call inside a phase is a span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, start, time.perf_counter())

        return traced

    # -- patching ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` at the class (plain, class- or static method)."""
        raw = next(
            klass.__dict__[attr] for klass in cls.__mro__ if attr in klass.__dict__
        )
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._set(cls, attr, wrapped)

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module function in every ``repro`` namespace that binds it.

        A ``from x import f`` copies the binding, so the function is
        replaced in its defining module and in each loaded ``repro``
        module that holds the same object — every caller's namespace.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if vars(mod).get(attr) is original:
                self._set(mod, attr, wrapped)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had, value = self._patches.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every recorded span as JSON (one list per span)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            "fields": ["run_id", "span_id", "parent_id", "phase", "name", "start", "end"],
            "spans": [[self.run_id, *span] for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, separators=(",", ":"))
