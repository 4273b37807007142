"""Span recording from outside the program: wrap functions where they are imported.

The serving code has no tracing of its own, so the traced run patches the
module attributes the serving path looks up at call time (for example
``repro.service.service.match_normalized``) with wrappers that time each
call.  Durations are kept in memory per span name and summarised when the
run ends; nothing is written while requests are in flight.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Tuple


class SpanLog:
    """Durations (seconds) and counters per span name, thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self.durations: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.durations.setdefault(name, []).append(seconds)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def clear(self) -> None:
        with self._lock:
            self.durations = {}
            self.counters = {}

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "durations": {name: list(values) for name, values in self.durations.items()},
                "counters": dict(self.counters),
            }

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attribute: str, make_wrapper: Callable[[Any], Any]) -> None:
        """Replace ``owner.attribute`` (``owner`` may be a module path)."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def timed(self, owner: Any, attribute: str, span: str,
              extra: Callable[..., None] = None) -> None:
        """Time every call of ``owner.attribute`` under ``span``.

        ``extra(log, result, *args, **kwargs)`` may record counters derived
        from the call, such as bytes computed from array shapes.
        """
        log = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                log.add(span, time.perf_counter() - start)
                if extra is not None:
                    extra(log, result, *args, **kwargs)
                return result

            return wrapper

        self.patch(owner, attribute, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class TimedLock:
    """A lock proxy that records how long each ``acquire`` waited."""

    def __init__(self, lock, log: SpanLog, span: str):
        self._lock = lock
        self._log = log
        self._span = span

    def acquire(self, *args, **kwargs):
        start = time.perf_counter()
        acquired = self._lock.acquire(*args, **kwargs)
        self._log.add(self._span, time.perf_counter() - start)
        return acquired

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


def install_fit_spans(log: SpanLog) -> None:
    """Time gallery fits and the leverage scores (the ``linalg`` layer) inside them."""
    log.timed("repro.gallery.reference", "fit_principal_features_cached", "gallery.fit")
    log.timed("repro.gallery.factors", "cached_leverage_scores", "linalg.leverage")


def kernel_shape_counters(log: SpanLog, result, reference, probe, *args, **kwargs) -> None:
    """Work of one ``match_normalized`` call, computed from array shapes.

    Columns are gallery columns times probe columns scored; bytes are the
    float64 inputs read plus the similarity matrix written (computed from
    shapes, not measured on the memory bus).
    """
    features, gallery_columns = reference.shape
    probe_columns = probe.shape[1]
    log.count("kernel_calls")
    log.count("kernel_columns", gallery_columns * probe_columns)
    log.count(
        "kernel_bytes",
        8 * (features * gallery_columns + features * probe_columns
             + gallery_columns * probe_columns),
    )
