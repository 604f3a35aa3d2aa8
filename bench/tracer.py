"""Outside-in tracer: wraps ttlab functions and methods at run time.

Each hook names a function or method by ``"<module>:<attr>"`` or
``"<module>:<Class>.<method>"``. Inside a ``Tracer`` block every binding of
the hooked object is replaced by a timing wrapper: the attribute in its home
module and every name that another ttlab module imported it under, so every
caller goes through the wrapper. Leaving the block restores every binding.
A hook whose target no longer exists is reported in ``Tracer.absent``
instead of raising, so the tracer survives refactors that remove a layer.

Per hook the tracer keeps the call count, total (inclusive) time and self
time, which is the total minus the time spent in nested traced calls.
Hooks marked as spans also keep one record per call (id, parent span id,
name, start, end); hot per-tick hooks are aggregated only, which keeps the
memory of a traced run small.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Observer = Callable[[tuple, dict, object], None]


class HookStats:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: Optional[List[float]] = [] if keep_durations else None


class Hook:
    """One traced target.

    ``observe(args, kwargs, result)`` runs after each call, outside the
    timed interval, to collect derived counts. ``durations`` keeps every
    call's inclusive time for percentiles.
    """

    def __init__(
        self,
        target: str,
        span: bool = False,
        durations: bool = False,
        observe: Optional[Observer] = None,
    ) -> None:
        self.target = target
        self.span = span
        self.durations = durations
        self.observe = observe


class Tracer:
    def __init__(self, hooks: Sequence[Hook], package: str = "ttlab") -> None:
        self.hooks = list(hooks)
        self.package = package
        self.stats: Dict[str, HookStats] = {}
        self.absent: List[str] = []
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._patched: List[Tuple[object, str, object]] = []
        # One entry per active traced call: time spent in traced children.
        self._child_s: List[float] = []
        self._span_ids: List[int] = []
        self._next_span = itertools.count()

    # ------------------------------------------------------------------
    # patching

    def _resolve(self, target: str):
        mod_name, _, attr = target.partition(":")
        mod = sys.modules.get(mod_name)
        if mod is None:
            try:
                __import__(mod_name)
            except ImportError:
                return None
            mod = sys.modules[mod_name]
        owner: object = mod
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        name = parts[-1]
        if isinstance(owner, type):
            fn = owner.__dict__.get(name)
        else:
            fn = getattr(owner, name, None)
        if not callable(fn):
            return None
        return owner, name, fn

    def _bindings(self, owner: object, name: str, fn: object) -> List[Tuple[object, str]]:
        if isinstance(owner, type):
            return [(owner, name)]
        found = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, val in vars(mod).items():
                if val is fn:
                    found.append((mod, attr))
        return found

    def __enter__(self) -> "Tracer":
        try:
            for hook in self.hooks:
                resolved = self._resolve(hook.target)
                if resolved is None:
                    self.absent.append(hook.target)
                    continue
                owner, name, fn = resolved
                stats = HookStats(hook.durations)
                self.stats[hook.target] = stats
                wrapper = self._wrap(hook, fn, stats)
                for where, attr in self._bindings(owner, name, fn):
                    self._patched.append((where, attr, fn))
                    setattr(where, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            where, attr, original = self._patched.pop()
            setattr(where, attr, original)

    # ------------------------------------------------------------------
    # timing

    def _wrap(self, hook: Hook, fn, stats: HookStats):
        clock = time.perf_counter
        child_s = self._child_s
        span_ids = self._span_ids
        spans = self.spans
        next_span = self._next_span
        observe = hook.observe
        name = hook.target
        is_span = hook.span

        def traced(*args, **kwargs):
            if is_span:
                sid = next(next_span)
                parent = span_ids[-1] if span_ids else None
                span_ids.append(sid)
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - inner
                if stats.durations is not None:
                    stats.durations.append(dt)
                if is_span:
                    span_ids.pop()
                    spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced
