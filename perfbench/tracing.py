"""In-memory spans around the public entry points of each layer.

Hooks are installed by replacing attributes from the outside; nothing in
``src/`` knows about them. A hook whose target no longer exists is
skipped, so it records zero calls instead of breaking the bench.

A hook may also count the work it saw, from the value its target
returned. A count that no longer fits the returned value is dropped in
the same way.
"""
from __future__ import annotations

import functools
import importlib
import time


def culled_walls(candidates) -> int:
    """Walls in the candidate set ``select_candidates`` returned."""
    return len(candidates.wall_arrays[0])


# (module, attribute path, span name, count or None). ``substream`` is
# hooked where the channel and GNSS trackers bound it, which is where
# per-id streams are made.
HOOKS = (
    ("v2xemu.scenario", "load_buildings", "scenario.load_buildings", None),
    ("v2xemu.geometry", "SpatialIndex.__init__", "geometry.index_build", None),
    ("v2xemu.geometry", "LinkClassifier.select_candidates", "geometry.cull", culled_walls),
    ("v2xemu.geometry", "LinkClassifier.classify_candidates", "geometry.classify", None),
    ("v2xemu.pipeline", "Emulator.step", "pipeline.step", None),
    ("v2xemu.channel", "substream", "rng.substream", None),
    ("v2xemu.gnss", "substream", "rng.substream", None),
)


class Recorder:
    """Spans as ``(name, start, end, parent, replay, step)`` tuples;
    ``parent`` is the index of the enclosing span or -1. Counts are
    ``(name, value, replay, step)`` tuples."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []
        self._stack: list[int] = []
        self.replay = 0
        self.step = -1  # index of the step last pulled from the trace

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.replay, self.step))

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.replay, self.step)
            if count is not None:
                try:
                    self.counts.append((name, count(value), self.replay, self.step))
                except (AttributeError, IndexError, TypeError):
                    pass
            return value

        return traced

    def install(self) -> list[str]:
        """Wrap every hook target that exists; returns the installed names."""
        installed = []
        for module_name, path, span, count in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name, None)
            if owner is None or not hasattr(owner, attr):
                continue
            setattr(owner, attr, self.wrap(span, getattr(owner, attr), count))
            installed.append(f"{module_name}.{path}")
        return installed
