"""Network container: an ordered collection of layers with aggregate stats.

A :class:`Network` is the unit of work handed to the training planner
(:mod:`repro.training.plan`) and memory model
(:mod:`repro.training.memory`).  It deliberately stays a flat ordered
list — the accelerator models only need the multiset of GEMMs per
training stage plus parameter/activation footprints, so residual
topology and branching are already resolved by the zoo builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.workloads.gemms import Gemm, GemmKind
from repro.workloads.layer import Embedding, Layer


class ModelFamily:
    """Model family tags used by the paper's figures (CNN / Transformer / RNN)."""

    CNN = "CNN"
    TRANSFORMER = "Transformer"
    RNN = "RNN"


@dataclass(frozen=True)
class Network:
    """An ordered DNN description.

    Attributes
    ----------
    name:
        Display name matching the paper's figures (e.g. ``"ResNet-152"``).
    family:
        One of :class:`ModelFamily` — drives figure grouping.
    layers:
        Topologically ordered layers.
    input_elems:
        Per-example input tensor elements (e.g. ``3*32*32`` for CIFAR-10).
    """

    name: str
    family: str
    layers: tuple[Layer, ...]
    input_elems: int

    def __post_init__(self) -> None:
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"{self.name}: duplicate layer names {dupes}")

    # -- aggregate statistics ---------------------------------------------
    @cached_property
    def params(self) -> int:
        """Total learnable parameters."""
        return sum(layer.params for layer in self.layers)

    @cached_property
    def dense_grad_params(self) -> int:
        """Parameters whose per-example gradients are materialized densely.

        All weights count: DP-SGD frameworks densify even embedding
        gradients for per-example norm derivation (see
        :class:`repro.workloads.layer.Embedding`).
        """
        return self.params

    @cached_property
    def gemm_params(self) -> int:
        """Parameters of layers whose gradients are derived via GEMM.

        Normalization and embedding parameters are excluded: their
        gradients flow through the vector/scatter path.
        """
        from repro.workloads.layer import Norm

        return sum(
            layer.params for layer in self.layers
            if layer.has_weights and not isinstance(layer, (Embedding, Norm))
        )

    @cached_property
    def vector_grad_params(self) -> int:
        """Parameters whose gradients are derived on the vector path."""
        return self.params - self.gemm_params

    @cached_property
    def max_layer_params(self) -> int:
        """Largest single-layer parameter count.

        DP-SGD(R) materializes per-example gradients only one layer at
        a time (norm-then-discard), so its transient buffer scales with
        the largest layer rather than the whole model (Section II-C).
        """
        return max((layer.params for layer in self.layers), default=0)

    @cached_property
    def act_elems_per_example(self) -> int:
        """Activation elements stored per example for backpropagation."""
        return self.input_elems + sum(layer.out_elems for layer in self.layers)

    @cached_property
    def weight_layers(self) -> tuple[Layer, ...]:
        """Layers owning learnable weights."""
        return tuple(layer for layer in self.layers if layer.has_weights)

    # -- GEMM extraction ----------------------------------------------------
    def gemms(self, kind: GemmKind, batch: int) -> list[Gemm]:
        """All GEMMs of stage ``kind`` for a mini-batch of ``batch``."""
        extractors = {
            GemmKind.FORWARD: lambda l: l.forward_gemms(batch),
            GemmKind.ACT_GRAD: lambda l: l.act_grad_gemms(batch),
            GemmKind.WGRAD_BATCH: lambda l: l.batch_wgrad_gemms(batch),
            GemmKind.WGRAD_EXAMPLE: lambda l: l.example_wgrad_gemms(batch),
        }
        extract = extractors[kind]
        out: list[Gemm] = []
        for layer in self.layers:
            out.extend(extract(layer))
        return out

    def stage_macs(self, kind: GemmKind, batch: int) -> int:
        """Total MAC count of stage ``kind``."""
        return sum(g.macs for g in self.gemms(kind, batch))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name} ({self.family}): {len(self.layers)} layers, "
            f"{self.params / 1e6:.1f}M params, "
            f"{self.act_elems_per_example / 1e6:.2f}M activations/example"
        )
