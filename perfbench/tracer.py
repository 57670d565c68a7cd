"""In-memory span tracer that wraps the program's public functions.

Nothing under ``src/`` knows about it: :class:`Tracer` patches
functions and methods from the outside (module attributes, class
attributes and a few instance attributes) and restores them on
:meth:`Tracer.uninstall`.  Three probe kinds:

* ``span`` — a synchronous call becomes a span (name, start, end,
  parent span, operation id), recorded with ``perf_counter_ns`` into
  parallel lists.  Spans nest on one stack: with one thread and an
  asyncio loop, a synchronous call always finishes before anything
  else runs, so the stack is exact.
* ``count`` — the call is only counted (for functions so hot that a
  span per call would swamp memory, such as ``binding_hash``).
* ``async`` — a coroutine function; its span covers the awaited wall
  time, lives outside the stack and is excluded from self-time
  reconciliation (other spans run while it is suspended).

A span's *self time* is its duration minus that of its children.
:meth:`Tracer.analyse` returns per-name aggregates plus the window's
reconciliation: the self times of all spans plus the time no root
span covers must add up to the window's wall time.
"""

from __future__ import annotations

import contextvars
import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Optional

_ABSENT = object()

#: Operation id of the benchmark operation being executed (-1: none).
#: A contextvar, so asyncio callbacks inherit the id of the task that
#: scheduled them.
current_op: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_op", default=-1)


@dataclass
class Probe:
    """One function to wrap.

    Args:
        owner: Module or class holding the attribute.
        attr: Attribute name.
        span: Span name, ``"<layer>:<what>"``.
        kind: ``"span"``, ``"count"`` or ``"async"``.
        on_result: Called as ``on_result(result, args)`` after each call
            (value probes: fan-out reports, frame sizes).
    """

    owner: Any
    attr: str
    span: str
    kind: str = "span"
    on_result: Optional[Callable[[Any, tuple], None]] = None


@dataclass
class SpanStats:
    """Aggregates of one span name over a window."""

    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0


@dataclass
class Analysis:
    wall_ns: int
    by_name: dict[str, SpanStats]
    other_ns: int
    self_total_ns: int
    async_by_name: dict[str, SpanStats] = field(default_factory=dict)
    spans: int = 0

    def layer_self_ns(self, layer: str) -> int:
        return sum(s.self_ns for name, s in self.by_name.items()
                   if name.split(":", 1)[0] == layer)

    @property
    def reconcile_error(self) -> float:
        """|Σ self + other − wall| / wall."""
        if self.wall_ns <= 0:
            return 0.0
        return abs(self.self_total_ns + self.other_ns
                   - self.wall_ns) / self.wall_ns

    def stats(self, name: str) -> SpanStats:
        return self.by_name.get(name) or SpanStats()


class Tracer:
    """Install probes, record spans, analyse a window."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self.clear()

    # -- recording -----------------------------------------------------

    def clear(self) -> None:
        """Forget recorded spans (counts are kept; see :meth:`counts`)."""
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.async_spans: list[tuple[int, int, int, int]] = []
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.counts.setdefault(name, 0)
        return ident

    def wrap(self, fn: Callable, span: str, kind: str = "span",
             on_result: Optional[Callable[[Any, tuple], None]] = None,
             ) -> Callable:
        """Return *fn* wrapped as a probe of *kind* named *span*."""
        ident = self.name_id(span)
        counts = self.counts
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[span] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "async":
            @functools.wraps(fn)
            async def timed(*args, **kwargs):
                counts[span] += 1
                op = current_op.get()
                start = perf_counter_ns()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self.async_spans.append(
                        (ident, start, perf_counter_ns(), op))
                if on_result is not None:
                    on_result(result, args)
                return result
            return timed

        def spanned(*args, **kwargs):
            names, starts, ends = (self.span_name, self.span_start,
                                   self.span_end)
            stack = self.stack
            index = len(starts)
            names.append(ident)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(current_op.get())
            ends.append(0)
            stack.append(index)
            counts[span] += 1
            start = perf_counter_ns()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result
        return functools.update_wrapper(spanned, fn)

    # -- installing ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, own.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self, probes: list[Probe]) -> None:
        """Wrap every probe's target.

        A module-level function is replaced in every ``repro`` module
        that imported it by name, so ``from x import f`` call sites
        are traced too.
        """
        for probe in probes:
            if isinstance(probe.owner, type):
                original = getattr(probe.owner, probe.attr)
                self._patch(probe.owner, probe.attr,
                            self.wrap(original, probe.span, probe.kind,
                                      probe.on_result))
                continue
            original = getattr(probe.owner, probe.attr)
            wrapped = self.wrap(original, probe.span, probe.kind,
                                probe.on_result)
            holders = [probe.owner] + [
                module for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not probe.owner
                and getattr(module, probe.attr, None) is original]
            for holder in holders:
                self._patch(holder, probe.attr, wrapped)

    def wrap_attribute(self, owner: Any, attr: str, span: str,
                       kind: str = "span",
                       on_result: Optional[Callable] = None) -> None:
        """Wrap one instance attribute (a bound method or a handler)."""
        self._patch(owner, attr, self.wrap(getattr(owner, attr), span,
                                           kind, on_result))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- analysis ------------------------------------------------------

    def analyse(self, window_start: int, window_end: int) -> Analysis:
        """Aggregate the spans recorded since the last :meth:`clear`.

        Self time = duration − children's durations.  ``other`` is the
        part of the window that no root span covers, computed from the
        union of root intervals — so the reconciliation
        ``Σ self + other = wall`` fails if root spans overlap, i.e. if
        the single-stack discipline was broken.
        """
        starts, ends, parents = (self.span_start, self.span_end,
                                 self.span_parent)
        count = len(starts)
        child = [0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        by_name: dict[str, SpanStats] = {}
        stats_of = [SpanStats() for _ in self.names]
        self_total = 0
        roots: list[tuple[int, int]] = []
        for index in range(count):
            duration = ends[index] - starts[index]
            own = duration - child[index]
            stats = stats_of[self.span_name[index]]
            stats.calls += 1
            stats.incl_ns += duration
            stats.self_ns += own
            self_total += own
            if parents[index] < 0:
                roots.append((starts[index], ends[index]))
        for ident, stats in enumerate(stats_of):
            if stats.calls:
                by_name[self.names[ident]] = stats
        covered = 0
        last = window_start
        for start, end in sorted(roots):
            start = max(start, last)
            end = min(end, window_end)
            if end > start:
                covered += end - start
                last = end
        async_by_name: dict[str, SpanStats] = {}
        for ident, start, end, _op in self.async_spans:
            stats = async_by_name.setdefault(self.names[ident],
                                             SpanStats())
            stats.calls += 1
            stats.incl_ns += end - start
        wall = window_end - window_start
        return Analysis(wall_ns=wall, by_name=by_name,
                        other_ns=wall - covered, self_total_ns=self_total,
                        async_by_name=async_by_name, spans=count)

    def inclusive_ns(self, names: set[str]) -> int:
        """Inclusive time of spans named in *names*, counting a span
        only if its parent is not itself in *names* (no double count
        when one routing call nests in another)."""
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0
        span_name, parents = self.span_name, self.span_parent
        for index in range(len(span_name)):
            if span_name[index] in wanted:
                parent = parents[index]
                if parent < 0 or span_name[parent] not in wanted:
                    total += self.span_end[index] - self.span_start[index]
        return total

    def write(self, path: str) -> None:
        """Write the recorded spans as TSV: a header of span names,
        then ``name start_ns end_ns parent op`` per span, then the
        async spans with parent ``async``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("# names\t" + "\t".join(self.names) + "\n")
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for index in range(len(self.span_start)):
                out.write(f"{self.span_name[index]}\t"
                          f"{self.span_start[index]}\t"
                          f"{self.span_end[index]}\t"
                          f"{self.span_parent[index]}\t"
                          f"{self.span_op[index]}\n")
            for ident, start, end, op in self.async_spans:
                out.write(f"{ident}\t{start}\t{end}\tasync\t{op}\n")
