"""Spans and work counters around the public functions of every grpd module.

Both recorders replace each public (non-underscore) function that a ``grpd``
module defines, plus ``Report.render``, wherever any ``grpd`` module binds it,
so calls the library makes to itself are caught too. Nothing inside ``src``
changes: the wrappers are installed from here and removed afterwards.

The layer of a function is the last part of its module name. ``cli`` is the
root layer: its functions are not wrapped, and its self time is command
wall time minus the time covered by the other layers.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter
from typing import Callable

ROOT = "cli.run_command"


def grpd_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "grpd" or name.startswith("grpd.")]


def public_functions(modules) -> list[tuple[str, Callable]]:
    """(``layer.name``, function) for each public function a grpd module defines."""
    out = []
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        if layer in ("grpd", "cli"):
            continue
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", obj))
    return out


class Patch:
    """Replaces functions in every grpd namespace that binds them; undo restores."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def install(self, wrap: Callable[[str, Callable], Callable]) -> None:
        modules = grpd_modules()
        replace = {id(fn): (fn, wrap(fid, fn)) for fid, fn in public_functions(modules)}
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self.set(mod, name, hit[1])
        report = sys.modules["grpd.documents"].Report
        self.set(report, "render", wrap("documents.render", report.render))

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Spans kept in memory as [function id, start, end, parent index].

    ``command`` runs one command inside a root span; the recorded spans are
    reduced to self times only at the end, by :meth:`self_times`.
    """

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.spans: list[list] = []
        self._stack = [-1]
        self._patch = Patch()

    def _span(self, fid: int, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._span(self._ids[name], fn)

    def install(self) -> None:
        self._patch.install(self._wrap)

    def uninstall(self) -> None:
        self._patch.undo()

    def command(self, fn: Callable, *args):
        """Run ``fn(*args)`` as a root span of the ``cli`` layer."""
        return self._span(0, fn)(*args)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per function id name, and the summed root durations.

        Raises AssertionError when a span is not nested inside its parent,
        since self times would then not add up to the traced wall time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for fid, start, end, parent in spans:
            if parent >= 0:
                outer = spans[parent]
                if not (outer[1] <= start <= end <= outer[2]):
                    raise AssertionError(f"span {self.names[fid]} escapes its parent")
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (fid, start, end, _), covered in zip(spans, child):
            out.setdefault(self.names[fid], []).append(end - start - covered)
        roots = math.fsum(end - start for _, start, end, parent in spans if parent < 0)
        return {name: math.fsum(v) for name, v in out.items()}, roots

    def clear(self) -> None:
        self.spans.clear()


class WorkCounter:
    """Call counts, plus work read from arguments and return values.

    Also counts Gaussian-rational additions and multiplications by wrapping
    the dunder methods, which is why it runs apart from the timed spans.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._patch = Patch()

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name == "documents.parse_document":
            c["documents.bytes_in"] += len(args[0].encode("utf-8"))
        elif name == "groupoid.validate_groupoid":
            c["groupoid.arrows"] += result.n_arrows
            c["groupoid.composable_pairs"] += sum(1 for _ in result.composable_pairs())
        elif name in ("sip.sip_from_thetas", "sip.validate_bihom"):
            c["sip.pairing_entries"] += len(result.table)
        elif name == "norm.parallelogram_survey":
            c["norm.parallelogram_witnesses"] += sum(r.witnesses_checked for r in result.values())
        elif name == "norm.parallelogram_check":
            c["norm.parallelogram_witnesses"] += result.witnesses_checked
        elif name == "norm.polarize":
            c["norm.polarized_pairs"] += result.defined_pairs

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counts, observe = self.counts, self._observe

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            result = fn(*args, **kwargs)
            observe(name, args, result)
            return result

        return counted

    def install(self) -> None:
        self._patch.install(self._wrap)
        gaussian = sys.modules["grpd.scalars"].GaussianRational
        for op, key in (("__add__", "add"), ("__radd__", "add"), ("__mul__", "mul"), ("__rmul__", "mul")):
            self._patch.set(gaussian, op, self._dunder(f"scalars.gaussian_{key}.calls", getattr(gaussian, op)))

    def _dunder(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def uninstall(self) -> None:
        self._patch.undo()
