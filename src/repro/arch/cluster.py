"""Multi-chip cluster: N accelerators behind one interconnect.

A :class:`Cluster` composes ``N`` identical :class:`Accelerator` chips
with an :class:`~repro.arch.interconnect.Interconnect`.  It is the unit
of work for data-parallel DP-SGD sharding
(:func:`repro.training.simulate.simulate_sharded_training_step`): each
chip executes one shard of the mini-batch locally, and the step's
cross-chip collectives
(:func:`repro.training.batch.step_comm_cycles`) are charged in the
chips' clock domain so they aggregate with every existing phase.

The chips must share one clock frequency — the cluster exposes a single
cycle domain, and collective seconds are converted into it with
``ceil(seconds * frequency)``, applied once per aggregate rather than
once per collective (fractional seconds accumulate across the
collectives of a step before quantization).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.arch.interconnect import Interconnect, InterconnectConfig


@dataclass(frozen=True)
class ParallelPlan:
    """A 3D parallelism grid: ``dp`` replicas x ``pp`` stages x ``tp`` shards.

    The product must equal the cluster's chip count.  ``dp`` replicas
    each process ``global_batch / dp`` examples; ``pp`` pipeline stages
    partition the layer sequence (GPipe-style microbatched schedule);
    ``tp`` tensor-parallel ranks shard every GEMM's output dimension
    (Megatron-style column parallelism) and allgather activations on
    the fabric's intra-node link.  ``ParallelPlan()`` on an N-chip
    cluster means pure data parallelism only when ``dp == N``; the
    degenerate ``pp == tp == 1`` plan routes through the existing DP
    path bit for bit.

    ``microbatches=None`` resolves to ``min(4*pp, local_batch)`` when
    ``pp > 1`` (a standard fill-efficiency heuristic: bubble fraction
    ``(pp-1)/M`` drops below ~25%) and to 1 otherwise.
    """

    dp: int = 1
    pp: int = 1
    tp: int = 1
    microbatches: int | None = None

    def __post_init__(self) -> None:
        for axis in ("dp", "pp", "tp"):
            if getattr(self, axis) < 1:
                raise ValueError(
                    f"{axis} must be >= 1, got {getattr(self, axis)}")
        if self.microbatches is not None and self.microbatches < 1:
            raise ValueError(
                f"microbatches must be >= 1 (or None), "
                f"got {self.microbatches}")

    @property
    def n_chips(self) -> int:
        return self.dp * self.pp * self.tp

    @property
    def is_pure_dp(self) -> bool:
        return self.pp == 1 and self.tp == 1

    def validate(self, n_chips: int) -> None:
        if self.n_chips != n_chips:
            raise ValueError(
                f"plan {self} uses {self.n_chips} chips but the cluster "
                f"has {n_chips}")

    def resolved_microbatches(self, local_batch: int) -> int:
        """The microbatch count the pipeline schedule actually runs."""
        if self.microbatches is not None:
            return min(self.microbatches, local_batch)
        if self.pp == 1:
            return 1
        return max(1, min(4 * self.pp, local_batch))

    def __str__(self) -> str:
        return f"dp{self.dp}·pp{self.pp}·tp{self.tp}"


class Cluster:
    """``N`` accelerators connected by a configurable interconnect.

    Parameters
    ----------
    chips:
        The member accelerators.  They must be homogeneous in clock
        frequency (data-parallel shards execute in lock-step; a single
        cycle domain keeps every report comparable).
    interconnect:
        The chip-to-chip fabric, as an :class:`Interconnect` or an
        :class:`InterconnectConfig` (default: ring, 100 GB/s links).
    """

    def __init__(
        self,
        chips: Sequence[Accelerator],
        interconnect: Interconnect | InterconnectConfig | None = None,
    ) -> None:
        if not chips:
            raise ValueError("a Cluster needs at least one chip")
        freqs = {chip.frequency_hz for chip in chips}
        if len(freqs) != 1:
            raise ValueError(
                f"cluster chips must share one clock frequency, got {freqs}")
        if isinstance(interconnect, InterconnectConfig):
            interconnect = Interconnect(interconnect)
        self.chips = tuple(chips)
        self.interconnect = interconnect or Interconnect()

    @property
    def n_chips(self) -> int:
        return len(self.chips)

    @property
    def chip(self) -> Accelerator:
        """The representative chip (shards are homogeneous)."""
        return self.chips[0]

    @property
    def name(self) -> str:
        return f"{self.chip.name}x{self.n_chips}"

    @property
    def topology(self) -> str:
        return self.interconnect.topology

    @property
    def frequency_hz(self) -> float:
        return self.chip.frequency_hz

    def __repr__(self) -> str:
        return (f"Cluster({self.chip.name} x {self.n_chips}, "
                f"{self.interconnect!r})")
