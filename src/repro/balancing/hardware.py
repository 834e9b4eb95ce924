"""Hardware NI-driven balancing schemes (§4.3, §5, §6.1).

* :class:`SingleQueue` — RPCValet's 1×16: one NI dispatcher balancing
  all cores with the outstanding-per-core threshold (default 2).
* :class:`Grouped` — the intermediary design point (§4.3): "each NI
  backend can dispatch to a limited subset of cores"; 4×4 in the paper.
* :class:`Partitioned` — 16×1: RSS-style static assignment with no
  rebalancing ("the only currently existing NI-driven load distribution
  mechanism").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BalancingScheme, Dispatcher, check_outstanding_limit
from .policies import SelectionPolicy, make_policy

__all__ = ["SingleQueue", "Grouped", "Partitioned"]

#: §4.3: "in our implementation, this number is two".
DEFAULT_OUTSTANDING_LIMIT = 2


def _fresh_policy(policy: Optional[str]) -> SelectionPolicy:
    return make_policy(policy or "least_outstanding")


class Grouped(BalancingScheme):
    """``num_groups`` dispatchers, each balancing a contiguous core slice.

    Messages are sprayed uniformly across groups at arrival (the chip's
    group spray), matching the queueing models' ``uni[0, Q-1]``
    assignment; within a group the dispatcher balances dynamically.
    """

    def __init__(
        self,
        num_groups: int,
        outstanding_limit: Optional[int] = DEFAULT_OUTSTANDING_LIMIT,
        policy: Optional[str] = None,
    ) -> None:
        if num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {num_groups!r}")
        self.num_groups = num_groups
        self.outstanding_limit = check_outstanding_limit(outstanding_limit)
        self.policy_name = policy
        self.label = self._make_label()

    def _make_label(self) -> str:
        return f"grouped-{self.num_groups}"

    def install(self, chip, rng: np.random.Generator) -> None:
        num_cores = chip.config.num_cores
        if num_cores % self.num_groups != 0:
            raise ValueError(
                f"{num_cores} cores are not divisible into {self.num_groups} groups"
            )
        cores_per_group = num_cores // self.num_groups
        num_backends = chip.config.num_backends
        dispatchers = []
        for group in range(self.num_groups):
            core_ids = list(
                range(group * cores_per_group, (group + 1) * cores_per_group)
            )
            # Home the dispatcher on the backend nearest its core slice
            # (for 4 groups on 4 backends: one per row, as in §4.3).
            home_backend = group * num_backends // self.num_groups
            dispatchers.append(
                Dispatcher(
                    chip=chip,
                    group_id=group,
                    core_ids=core_ids,
                    outstanding_limit=self.outstanding_limit,
                    policy=_fresh_policy(self.policy_name),
                    home_backend_id=home_backend,
                    serialize_ns=chip.config.dispatch_ns,
                    rng=rng,
                )
            )
        chip.install_dispatchers(dispatchers)


class SingleQueue(Grouped):
    """RPCValet's 1×16: a single NI dispatcher over all cores (§4.3)."""

    def __init__(
        self,
        outstanding_limit: Optional[int] = DEFAULT_OUTSTANDING_LIMIT,
        policy: Optional[str] = None,
    ) -> None:
        super().__init__(
            num_groups=1, outstanding_limit=outstanding_limit, policy=policy
        )

    def _make_label(self) -> str:
        return "1xN"


class Partitioned(BalancingScheme):
    """16×1: static per-message (or per-source) assignment, no threshold.

    ``spray="message"`` assigns each message to a uniformly random core
    — exactly the queueing models' uni[0, N-1]. ``spray="source"``
    models real RSS more closely: a static hash of the source node, so
    all messages of one sender land on the same core.
    """

    label = "Nx1"

    def __init__(self, spray: str = "message") -> None:
        if spray not in ("message", "source"):
            raise ValueError(f"spray must be 'message' or 'source', got {spray!r}")
        self.spray = spray

    def install(self, chip, rng: np.random.Generator) -> None:
        num_cores = chip.config.num_cores
        dispatchers = [
            Dispatcher(
                chip=chip,
                group_id=core_id,
                core_ids=[core_id],
                outstanding_limit=None,  # push on arrival, queue at the core
                policy=make_policy("round_robin"),
                home_backend_id=core_id
                * chip.config.num_backends
                // num_cores,
                serialize_ns=chip.config.dispatch_ns,
                rng=rng,
            )
            for core_id in range(num_cores)
        ]
        chip.install_dispatchers(dispatchers)
        if self.spray == "source":
            # Replace the chip's uniform per-message spray with a static
            # RSS-style hash of the source node.
            salt = int(rng.integers(0, 2**31))

            def source_hash(msg) -> int:
                return ((msg.src_node * 0x9E3779B1) ^ salt) % num_cores

            chip.group_spray_override = source_hash
