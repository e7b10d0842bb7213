"""In-memory span recorder and the layer wrappers of the traced run.

A :class:`Tracer` patches public functions of the engine's layers with thin
wrappers.  Each call records one span — name, start, end and the span that
was open when it started — in memory; nothing is written until the run
ends.  A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so nested layers (a plan lookup that
classifies and synthesises) are never counted twice.

Wrappers are installed where the caller looks the name up: a function that
``repro.rewriting.rewrite`` imports with ``from ... import mffc`` is patched
as ``repro.rewriting.rewrite.mffc``, otherwise the wrapper would time
nothing.  A target that no longer exists is listed in
:attr:`Tracer.missing` and its layer reads zero calls instead of failing.

Spans are only recorded in the process that installed the wrappers: pool
workers forked from it inherit the patched functions but call straight
through, so a pool run's spans are its parent-side spans.  Nesting follows
one stack of open spans, which holds because the workloads select
candidates on one thread (``par_grain=1``).
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: span name → wrapper targets as ``"module:attribute.path"``.  The
#: ``"kernels:ACTIVE.simulate_cones"`` target means the class of the kernel
#: backend that is active when the wrappers are installed.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "engine.bundle_load": ("repro.engine.core:load_warm_start",),
    "engine.pool.delta_install": ("repro.engine.parallel:install_delta",),
    "rewriting.insert_plan": ("repro.rewriting.rewrite:insert_plan",),
    "cuts.enumerate": ("repro.cuts.enumeration:CutSetCache.cuts",),
    "cuts.interior": ("repro.cuts.cache:CutFunctionCache.cone_interior",),
    "cuts.cone_hash": ("repro.cuts.cache:CutFunctionCache.cone_hash_for",),
    "cuts.cone_lookup": ("repro.cuts.cache:CutFunctionCache.has_cone_function",),
    "cuts.cone_function": ("repro.cuts.cache:CutFunctionCache.cone_function",),
    "cuts.plan": ("repro.cuts.cache:CutFunctionCache.plan_for",),
    "cuts.mffc": ("repro.rewriting.rewrite:mffc",),
    "kernels.simulate_cones": ("kernels:ACTIVE.simulate_cones",),
    "affine.classify": ("repro.affine.cache:ClassificationCache.classify",),
    "mc.synthesize": ("repro.mc.synthesize:McSynthesizer.synthesize",),
    "mc.plan": ("repro.mc.database:McDatabase.plan_for",),
    "xag.substitute": ("repro.xag.graph:Xag.substitute_node",),
    "xag.notify": (
        "repro.xag.bitsim:BitSimulator.on_substitution",
        "repro.cuts.cache:CutFunctionCache.on_substitution",
        "repro.cuts.enumeration:CutSetCache.on_substitution",
        "repro.xag.levels:LevelTracker.on_substitution",
    ),
}

#: span name → counter fed by the wrapped call's arguments (the counter
#: is named after the span: ``kernels.simulate_cones`` feeds
#: ``kernels.cones_simulated`` with the batch length).
ARGUMENT_COUNTERS: Dict[str, Tuple[str, Callable[[tuple], int]]] = {
    "kernels.simulate_cones": ("kernels.cones_simulated",
                               lambda args: len(args[2])),
}


class Tracer:
    """Records a span per call of the wrapped layer functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        #: one ``[name, start, end, parent index]`` list per span (parent
        #: ``-1`` for a span opened with no other span open).
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        #: targets that could not be resolved (their layer reads zero).
        self.missing: List[str] = []
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, parent])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one)."""
        self.spans[index][2] = self.clock()
        self._open.pop()

    def wrapper(self, name: str, original: Callable,
                count: Optional[Tuple[str, Callable[[tuple], int]]] = None
                ) -> Callable:
        """``original`` wrapped to record a span named ``name`` per call."""
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            if count is not None:
                tracer.counters[count[0]] += count[1](args)
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = original
        return traced

    # -- installation ---------------------------------------------------
    def install(self, layers: Dict[str, Sequence[str]] = LAYER_TARGETS) -> None:
        """Patch every resolvable target of ``layers``; list the rest."""
        for name, targets in layers.items():
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.missing.append(target)
                    continue
                owner, attribute = resolved
                original = getattr(owner, attribute)
                setattr(owner, attribute,
                        self.wrapper(name, original, ARGUMENT_COUNTERS.get(name)))
                self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse installation order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines (one ``[name, start, end, parent]``)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarise(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Self time and call count per span name.

    Self time is a span's duration minus the union of its children's
    intervals, so overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - _covered(children.get(index, ()))
        entry["calls"] += 1
    return totals


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def _resolve(target: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` of a ``"module:attr.path"`` target, or None."""
    module_name, _, path = target.partition(":")
    parts = path.split(".")
    try:
        if module_name == "kernels":
            from repro import kernels
            owner: object = type(kernels.active_backend())
            parts = parts[1:]  # drop the ACTIVE placeholder
        else:
            owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1]
