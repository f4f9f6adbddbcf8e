"""Span recording from outside the program: wrap each layer's entry point.

A :class:`Recorder` replaces a layer's public function at the place its
caller looks it up (a class attribute or a module global) with a wrapper
that records one span per call: name, start, end, parent span and the op
the harness was running.  Spans stay in memory; :meth:`Recorder.dump`
writes them out when the run ends.  :meth:`Recorder.restore` puts every
original back.

The parent of a span is tracked in a context variable, so concurrent
asyncio tasks keep separate span stacks.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: Span fields, in list order.
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Recorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=-1
        )
        self._op: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_op", default=None
        )
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str):
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, self._parent.get(), self._op.get(), 0]
        )
        return index, self._parent.set(index)

    def _close(self, index: int, token) -> None:
        self.spans[index][END] = time.perf_counter()
        self._parent.reset(token)

    @contextmanager
    def op(self, op_id: int, name: str = "harness.op") -> Iterator[int]:
        """Root span of one harness op; layer spans inside carry ``op_id``."""
        op_token = self._op.set(op_id)
        index, token = self._open(name)
        try:
            yield index
        finally:
            self._close(index, token)
            self._op.reset(op_token)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        extra: Optional[Callable[[tuple, object], int]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``extra(args, result)`` may return a number stored on the span
        (bytes moved, samples drawn).
        """
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        recorder = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced(*args, **kwargs):
                index, token = recorder._open(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    recorder._close(index, token)
                if extra is not None:
                    recorder.spans[index][EXTRA] = extra(args, result)
                return result

        else:

            def traced(*args, **kwargs):
                index, token = recorder._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder._close(index, token)
                if extra is not None:
                    recorder.spans[index][EXTRA] = extra(args, result)
                return result

            if not isinstance(original, type):  # a class is wrapped to count constructions
                traced = functools.wraps(original)(traced)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped entry point back (last wrapped first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        """Write the spans as one JSON document (fields as in ``NAME..EXTRA``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "extra"], "spans": self.spans},
                handle,
            )


def op_span(recorder: Optional[Recorder], op_id: int):
    """``recorder.op(op_id)``, or a context that does nothing in an untraced run."""
    return nullcontext() if recorder is None else recorder.op(op_id)


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
class SpanIndex:
    """Self times and ancestry over a finished span list."""

    def __init__(self, spans: Sequence[list]) -> None:
        self.spans = spans
        self.self_time = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                self.self_time[span[PARENT]] -= span[END] - span[START]

    def named(self, *names: str) -> List[int]:
        wanted = set(names)
        return [index for index, span in enumerate(self.spans) if span[NAME] in wanted]

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START]

    def under(self, index: int, names: Sequence[str]) -> bool:
        """Whether some ancestor of span ``index`` is named in ``names``."""
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds, summed extra."""
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span[NAME], {"calls": 0, "busy": 0.0, "self": 0.0, "extra": 0})
            row["calls"] += 1
            row["busy"] += self.duration(index)
            row["self"] += self.self_time[index]
            row["extra"] += span[EXTRA]
        return table

    def unaccounted(self, root: str = "harness.op") -> float:
        """Share of the ops' own latency that no layer span covers."""
        roots = self.named(root)
        total = sum(self.duration(index) for index in roots)
        uncovered = sum(self.self_time[index] for index in roots)
        return uncovered / total if total > 0 else 0.0
