"""The zero-cost-when-disabled observation hook.

Instrumented code (engines, the serving loop, the experiment registry)
asks this module for the *active observation* — a bundled tracer + metrics
registry — and publishes into it only when one is installed::

    from ..obs import hooks as obs_hooks
    ...
    obs = obs_hooks.active()
    if obs is not None:
        obs.metrics.counter("mem.level_hits", level="dram").inc(n)

When nothing is observing, ``active()`` returns ``None`` and the
instrumented code takes a single cheap branch.  Crucially, every hook
sits at *batch/run granularity*, never inside the per-line hot loops, so
the engine's bit-exact results and its throughput (the ``engine.*`` rows
of ``BENCH_history.jsonl``) are unchanged whether or not an observation
is active (enforced by ``tests/test_obs_integration.py``).

The active observation is process-global and not reference counted:
:func:`session` is a plain save/restore context manager, so nested
sessions observe into the innermost observation only.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from .metrics import MetricsRegistry
from .tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .requests import RequestLog

__all__ = ["Observation", "active", "enabled", "session"]


class Observation:
    """One observed run: a tracer and a metrics registry that share a lifetime.

    ``requests`` is the opt-in third instrument: attach a
    :class:`repro.obs.requests.RequestLog` and every serving simulation in
    the session records per-request lifecycles (the runner's
    ``--request-log`` flag does this).  It defaults to ``None`` — request
    logging is a further opt-in on top of tracing/metrics because it
    records data per request rather than per run (a run's log keeps
    columns and builds record dicts only on export).
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        requests: Optional["RequestLog"] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.requests = requests


#: The installed observation; None means every hook is a no-op branch.
_ACTIVE: Optional[Observation] = None


def active() -> Optional[Observation]:
    """The currently installed observation, or None when disabled."""
    return _ACTIVE


def enabled() -> bool:
    """Whether an observation is currently installed."""
    return _ACTIVE is not None


@contextmanager
def session(observation: Optional[Observation] = None) -> Iterator[Observation]:
    """Install an observation for the duration of a ``with`` block.

    Yields the observation (a fresh one is created when none is given);
    the previously active observation, if any, is restored on exit.
    """
    global _ACTIVE
    obs = observation if observation is not None else Observation()
    previous = _ACTIVE
    _ACTIVE = obs
    try:
        yield obs
    finally:
        _ACTIVE = previous
