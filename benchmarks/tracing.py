"""In-memory span tracer that wraps the public calls of each gtncal layer.

Spans are recorded from the benchmark's side only: the ``install_*``
methods swap a layer function (or method) for a timing wrapper in every
loaded gtncal module that bound it, and ``uninstall`` puts the originals
back.
Each span keeps its parent, so a layer's self time is its duration minus
the time its direct child spans cover.  Work counts are recorded at the
same boundaries by per-call counter functions.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # Each span: [id, parent id, name, start, end]; -1 means no parent.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.active = False  # spans are recorded only while active
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, func, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, time.perf_counter(), None]
            spans.append(span)
            stack.append(sid)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.counts[f"{name}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- patching ------------------------------------------------------------

    def install_function(self, module, attr: str, name: str, counter=None) -> None:
        """Wrap ``module.attr`` in its home module and in every loaded gtncal
        module that imported the same object under the same name."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gtncal" or mod_name.startswith("gtncal.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install_attribute(self, owner, attr: str, name: str, counter=None) -> None:
        """Wrap one attribute of one object, e.g. a numpy function."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, counter))

    def install_method(self, cls, attr: str, name: str, counter=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, counter))
        else:
            wrapped = self._wrap(name, raw, counter)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self, nested_only: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds;
        ``nested_only`` leaves out top-level spans."""
        child_time = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, parent, name, start, end in self.spans:
            if nested_only and parent < 0:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[sid]
        return out

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op function
        with a throw-away tracer of the same kind."""
        probe = Tracer()
        probe.active = True
        bare = lambda: None  # noqa: E731
        wrapped = probe._wrap("probe", bare)
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def top_level_wall(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)

    def layer_self_time(self) -> float:
        """Self time of every span below the top level (the timed calls)."""
        return sum(row["self_s"] for row in self.summary(nested_only=True).values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }
        path.write_text(json.dumps(payload) + "\n")
