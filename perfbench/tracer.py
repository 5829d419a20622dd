"""Layer spans recorded from outside the hlq package.

The tracer replaces each layer's entry point with a wrapper that times the
call, for the duration of a ``with tracer.installed():`` block. A span's
self time is its duration minus the time covered by the spans opened inside
it, so the self times of all spans of a pass add up to the pass's wall time.

Entry points are named by module and attribute path. One that no longer
exists (a later refactor may delete ``hidden_step`` or rename a helper) is
listed in ``absent`` and reported with zero calls instead of stopping the
benchmark.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

# span name -> entry points "module:attribute.path", patched where the
# caller looks the name up (engines and cli import some helpers by name).
LAYER_SPANS = {
    "engines.step_cached": (
        "hlq.engines:CachedHiddenEngine.step",
        "hlq.engines:CachedStandardEngine.step",
    ),
    "engines.step_direct": ("hlq.engines:hidden_step", "hlq.engines:standard_step"),
    "engines.guard": ("hlq.engines:_Guard.inspect",),
    "engines.build": ("hlq.engines:_build_stepper",),
    "schedules.make": ("hlq.engines:make_schedule",),
    "observables.state_record": ("hlq.engines:state_record",),
    "observables.trace_distance": ("hlq.observables:trace_distance",),
    "observables.husimi_grid": ("hlq.cli:husimi_grid",),
    "cli.write_csv": ("hlq.cli:_write_csv",),
    "cli.manifest": ("hlq.cli:_write_manifest", "hlq.cli:_sha256"),
    "cli.parse_config": ("hlq.cli:parse_config",),
}

# Self time of the benchmark's own call that no layer span claims.
ROOT_SPAN = "unattributed"


def _count_csv(tracer: "Tracer", args, result) -> None:
    path = args[0]
    with open(path, "rb") as fh:
        data = fh.read()
    tracer.counts["cli.write_csv.bytes"] += len(data)
    tracer.counts["cli.write_csv.rows"] += data.count(b"\n") - 1


def _count_husimi(tracer: "Tracer", args, result) -> None:
    tracer.counts["observables.husimi_grid.points"] += result.values.size


# Counters taken after a span closes, keyed by span name.
_AFTER = {"cli.write_csv": _count_csv, "observables.husimi_grid": _count_husimi}


def _resolve(target: str):
    """(owner, attribute) for "module:a.b.c", or None if any part is missing."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Accumulates per-span call counts and self times across traced passes."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._open: list[float] = []  # child time covered, one entry per open span

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.self_s[name] += duration - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += duration
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every resolvable entry point for the duration of the block."""
        restore = []
        self.absent = []
        try:
            for name, targets in LAYER_SPANS.items():
                for target in targets:
                    found = _resolve(target)
                    if found is None:
                        self.absent.append(target)
                        continue
                    owner, attr = found
                    # None when a class inherits the attribute; deleting the
                    # patch then uncovers the inherited one again.
                    restore.append((owner, attr, vars(owner).get(attr)))
                    setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                if original is not None:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
