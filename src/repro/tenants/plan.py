"""Injecting tenants into the serving loops.

:class:`TenantWorld` holds the mix's precomputed activity windows plus the
*mutable* defense step — the one piece of state the QoS controller moves at
runtime — and answers the two questions the loops ask: "how slow is
service right now?" and "what would the CPI probe read right now?".

:class:`TenantFaultPlan` adapts a world to the
:class:`~repro.serving.faults.FaultPlan` interface, so both serving
engines (the reference event loop and the batched fast engine) pick up
tenant pressure through the exact dispatch-time ``service_multiplier``
call they already make — zero engine changes, and an empty world keeps
``is_empty`` true so the no-tenant path stays byte-identical.

:func:`node_tenant_slowdowns` compiles a mix into cluster-scoped
:class:`~repro.serving.faults.NodeTenant` windows for runs where tenants
land on a subset of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..serving.faults import FaultPlan, NodeTenant
from .contention import DEFAULT_DEFENSE_LADDER, ContentionModel, DefenseConfig
from .profiles import TenantMix, TenantProfile

__all__ = [
    "DefenseChange",
    "TenantFaultPlan",
    "TenantWorld",
    "node_tenant_slowdowns",
]


@dataclass(frozen=True)
class DefenseChange:
    """One defense-step transition, recorded for reporting."""

    t_ms: float
    from_step: int
    to_step: int
    reason: str


@dataclass
class TenantWorld:
    """Live tenant state for one serving run.

    ``defense_step`` indexes ``ladder`` and is the only mutable knob; the
    QoS controller moves it through :meth:`set_defense`.  Design points
    come from the contention model, which caches them, so the per-dispatch
    cost is a window scan plus a dict lookup.
    """

    mix: TenantMix
    model: ContentionModel
    horizon_ms: float
    ladder: Tuple[DefenseConfig, ...] = DEFAULT_DEFENSE_LADDER
    initial_step: int = 0
    defense_step: int = field(init=False)
    changes: List[DefenseChange] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.horizon_ms <= 0:
            raise ConfigError("horizon must be positive")
        if not self.ladder:
            raise ConfigError("defense ladder must be non-empty")
        if not 0 <= self.initial_step < len(self.ladder):
            raise ConfigError(
                f"initial_step must index the ladder "
                f"[0, {len(self.ladder)}), got {self.initial_step}"
            )
        self.defense_step = self.initial_step
        self._windows = self.mix.windows(self.horizon_ms) if self.mix.tenants else []

    @property
    def is_empty(self) -> bool:
        """True when the world can never perturb service times."""
        return not self._windows and self.initial_step == 0

    @property
    def max_step(self) -> int:
        return len(self.ladder) - 1

    def active_at(self, t_ms: float) -> Tuple[TenantProfile, ...]:
        """Tenants whose activity windows cover ``t_ms``."""
        live = []
        seen = set()
        for idx, start, end in self._windows:
            if start <= t_ms < end and idx not in seen:
                seen.add(idx)
                live.append(self.mix.tenants[idx])
        return tuple(live)

    def multiplier_at(self, t_ms: float) -> float:
        """Service-time inflation at ``t_ms`` under the current defense.

        1.0 exactly when nothing is live and no defense is engaged — a
        standing CAT reservation costs capacity even while tenants sleep,
        which is precisely the static-partition tax the QoS loop exists
        to avoid.
        """
        active = self.active_at(t_ms)
        if not active and self.defense_step == 0:
            return 1.0
        return self.model.design_point(
            active, self.ladder[self.defense_step]
        ).multiplier

    def probe_at(self, t_ms: float) -> Tuple[float, Dict[str, float]]:
        """(memory-stall share, per-level mix) an observer reads at ``t_ms``."""
        point = self.model.design_point(
            self.active_at(t_ms), self.ladder[self.defense_step]
        )
        return point.mem_stall_share, point.level_mix

    def set_defense(self, t_ms: float, step: int, reason: str) -> None:
        """Move the defense ladder; records the transition."""
        if not 0 <= step < len(self.ladder):
            raise ConfigError(
                f"defense step must index the ladder [0, {len(self.ladder)}), "
                f"got {step}"
            )
        if step == self.defense_step:
            return
        self.changes.append(
            DefenseChange(float(t_ms), self.defense_step, step, reason)
        )
        self.defense_step = step

    def tenant_windows(self) -> List[Tuple[str, float, float, Dict[str, object]]]:
        """Activity windows in the fault-window reporting shape.

        Names are ``tenant_<kind>:<name>``, so an overlapped request's
        ``fault_windows`` name the tenant; the attrs carry no ``core``
        key, making the windows fleet-wide.
        """
        out: List[Tuple[str, float, float, Dict[str, object]]] = []
        for idx, start, end in self._windows:
            tenant = self.mix.tenants[idx]
            out.append(
                (
                    f"tenant_{tenant.kind}:{tenant.name}",
                    start,
                    end,
                    {"tenant": tenant.name, "kind": tenant.kind},
                )
            )
        return out


class TenantFaultPlan(FaultPlan):
    """A fault plan that also carries a tenant world.

    Composes: ordinary faults keep working, and the tenant multiplier
    stacks multiplicatively on top, evaluated at dispatch time like every
    other slowdown.  With an empty base plan *and* an empty world the
    plan reports itself empty, so ``ServerSim`` keeps the vectorized
    happy path and the no-tenant run stays byte-identical.
    """

    def __init__(
        self,
        world: TenantWorld,
        faults: Sequence[object] = (),
        seed: int = 0,
    ) -> None:
        super().__init__(faults, seed)
        self.world = world

    @property
    def is_empty(self) -> bool:
        return super().is_empty and self.world.is_empty

    def service_multiplier(self, core: int, t_ms: float) -> float:
        return super().service_multiplier(core, t_ms) * self.world.multiplier_at(
            t_ms
        )

    def windows(self) -> List[Tuple[str, float, float, Dict[str, object]]]:
        return super().windows() + self.world.tenant_windows()


def node_tenant_slowdowns(
    mix: TenantMix,
    model: ContentionModel,
    horizon_ms: float,
    nodes: Sequence[int],
    defense: Optional[DefenseConfig] = None,
) -> List[NodeTenant]:
    """Compile a mix into node-scoped tenant windows for the cluster layer.

    Each activity window becomes one :class:`NodeTenant` per affected
    node, with the window's *static* contended multiplier (the cluster
    loop has no per-node QoS controller; this models an undefended or
    statically-defended subset of the fleet).
    """
    defense = defense or DefenseConfig("none")
    out: List[NodeTenant] = []
    for idx, start, end in mix.windows(horizon_ms):
        tenant = mix.tenants[idx]
        factor = model.design_point((tenant,), defense).multiplier
        for node in nodes:
            out.append(
                NodeTenant(
                    node=node,
                    start_ms=start,
                    end_ms=end,
                    factor=max(1.0, factor),
                    tenant=tenant.name,
                    kind=tenant.kind,
                )
            )
    return out
