"""The shared ``"run:req"`` id scheme linking every observability layer.

One request is identified the same way everywhere the observatory sees
it: the request-log JSONL line (``id``), the fleet span tree (root
``span_id``), and the latency-histogram exemplars all carry
``"{run}:{req}"``.  Slot (gather) and attempt spans extend the root id
with ``/g{k}`` and ``/a{seq}`` suffixes, route decisions with ``/r{seq}``.

This module is the single owner of that scheme, so the cluster loop and
the request log can never drift apart on the format.  Readers never
parse an id: a span's parent is named in its ``parent_id``, and a
request's id is its JSONL line's ``id``.  Everything is pure string
work: no simulation state, no randomness.
"""

from __future__ import annotations

__all__ = [
    "attempt_id",
    "request_id",
    "route_id",
    "slot_id",
]


def request_id(run: int, req: int) -> str:
    """The exemplar id of request ``req`` in run ``run``: ``"run:req"``."""
    return f"{run}:{req}"


def slot_id(root: str, k: int) -> str:
    """The span id of gather slot ``k`` under root span ``root``."""
    return f"{root}/g{k}"


def route_id(slot: str, seq: int) -> str:
    """The span id of route decision ``seq`` under gather span ``slot``."""
    return f"{slot}/r{seq}"


def attempt_id(slot: str, seq: int) -> str:
    """The span id of attempt ``seq`` under gather span ``slot``."""
    return f"{slot}/a{seq}"
