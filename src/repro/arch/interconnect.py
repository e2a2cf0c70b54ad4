"""Chip-to-chip interconnect model for multi-accelerator clusters.

Data-parallel DP-SGD needs exactly two collectives per training step
(see :mod:`repro.training.simulate`): an allreduce over the per-batch
gradient sum and, for the private algorithms, a (tiny) allreduce over
per-example norm bookkeeping.  Both are modeled closed-form on top of a
link-level abstraction: every chip owns identical full-duplex links of
``link_bandwidth_bytes_per_s``, and every traversal pays
``link_latency_s`` once.

Three topologies are supported:

``ring``
    The classic bandwidth-optimal ring allreduce (reduce-scatter +
    all-gather): ``2*(N-1)`` steps, each moving ``payload/N`` bytes per
    link, so

    ``T_ring = 2*(N-1) * (payload/(N*bw) + latency)``.

``all_to_all``
    A fully connected fabric where each chip exchanges its ``payload/N``
    shard with all ``N-1`` peers concurrently (direct reduce-scatter,
    then direct all-gather — two latency hops total):

    ``T_a2a = 2 * (payload/(N*bw) + latency)``.

``hierarchical``
    Fully connected islands of ``chips_per_node`` chips (``M``), with a
    ring across the ``K = N/M`` nodes.  The allreduce decomposes into
    the standard three-stage hierarchical schedule: direct reduce-scatter
    inside each node (each chip ends up owning a ``payload/M`` shard of
    the node-level sum), a ring allreduce of that shard across its ``K``
    per-node owners, then a direct all-gather back inside the node:

    ``T_hier =  [M>1] * 2 * (payload/(M*bw) + latency)
              + [K>1] * 2*(K-1) * (payload/(M*K*bw) + latency)``.

    At ``chips_per_node == 1`` this is *exactly* the flat ``ring``; at
    ``chips_per_node == N`` it is exactly ``all_to_all`` — the
    degenerate-shape regression anchors in ``tests/test_overlap.py``.

All three schedules move the same per-chip wire traffic,
``2*(N-1)/N * payload`` bytes — the well-known lower bound for a
bandwidth-optimal allreduce (the hierarchical stages telescope:
``2P(M-1)/M + 2P(K-1)/(MK) = 2P(N-1)/N``) — and differ only in how
many latency hops they expose.  At ``N == 1`` every collective is free.

Bucketing
---------
``bucket_bytes`` splits a payload into fixed-size gradient buckets that
allreduce back-to-back on the wire (the standard DDP bucketing
schedule).  The wire is serialized, so the *total* collective time is
the sum of per-bucket times — strictly more than one monolithic
allreduce once per-bucket latency hops repeat.  What bucketing buys is
*overlap*: a bucket can start its allreduce while compute is still
producing later buckets, which is how
:func:`repro.training.simulate.simulate_sharded_training_step` hides
communication behind the backward pass (it charges only the *exposed*
remainder).  ``bucket_bytes=None`` (default) keeps one monolithic
bucket, making bucketed and unbucketed times identical.

Fabrics
-------
A :class:`Fabric` names two link classes — a fast ``intra_node`` link
(NVLink/ICI-style, shared by chips on one board) and a slower
``cross_node`` link (NIC-style, between boards).  Collectives pick the
link class that matches where their traffic flows: tensor-parallel
allgathers ride the intra-node link, data-parallel allreduces and
pipeline boundary transfers ride the cross-node link, and the
``hierarchical`` topology's in-node stage uses the intra-node link
while its cross-node ring uses the other.  The default
(``fabric=None``) resolves to a *uniform* fabric built from the
config's scalar ``link_bandwidth_bytes_per_s`` / ``link_latency_s``,
which reproduces the single-link-class model bit for bit.

One implementation
------------------
Every cost above is written once, as an array form over NumPy columns
(:func:`allreduce_seconds_batch` and friends).  The
:class:`Interconnect` methods evaluate those forms on length-1
columns; :func:`repro.training.batch.step_comm_cycles` evaluates them
over a whole config grid for both sharded-step drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np
from numpy.typing import NDArray

#: Supported interconnect topologies.
TOPOLOGIES = ("ring", "all_to_all", "hierarchical")

#: Default per-direction link bandwidth (contemporary accelerator
#: interconnect, 100 GB/s).  The single sanctioned home of the raw
#: constant — everything outside this module must route through a
#: :class:`Fabric` / :class:`InterconnectConfig` (lint rule R007).
DEFAULT_LINK_BANDWIDTH_BYTES_PER_S = 100e9
#: Default per-hop link latency (~1 microsecond).
DEFAULT_LINK_LATENCY_S = 1e-6


@dataclass(frozen=True)
class LinkClass:
    """One named class of chip-to-chip links (bandwidth + hop latency)."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"link class {self.name!r}: bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError(
                f"link class {self.name!r}: latency cannot be negative")


@dataclass(frozen=True)
class Fabric:
    """A heterogeneous interconnect: fast intra-node, slow cross-node links.

    Degenerate fabrics (both classes identical) reproduce the uniform
    single-link model exactly — the resolution in
    :meth:`InterconnectConfig.links` feeds the same floats through the
    same expressions, so existing results stay bitwise-identical.
    """

    intra_node: LinkClass
    cross_node: LinkClass

    @staticmethod
    def uniform(
        bandwidth_bytes_per_s: float = DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
        latency_s: float = DEFAULT_LINK_LATENCY_S,
    ) -> "Fabric":
        """A degenerate fabric whose two link classes are identical."""
        link = LinkClass("uniform", bandwidth_bytes_per_s, latency_s)
        return Fabric(intra_node=link, cross_node=link)

    def link_params(self) -> tuple[float, float, float, float]:
        """``(cross bw, cross latency, intra bw, intra latency)``.

        The link operands of the collective forms, in their positional
        order (``bandwidth, latency, intra_bandwidth, intra_latency``).
        """
        cross, intra = self.cross_node, self.intra_node
        return (cross.bandwidth_bytes_per_s, cross.latency_s,
                intra.bandwidth_bytes_per_s, intra.latency_s)


#: Named fabric presets for the CLI (``--fabric``).
FABRICS: dict[str, Fabric] = {
    "uniform": Fabric.uniform(),
    "two-tier": Fabric(
        intra_node=LinkClass("nvlink", 300e9, 0.5e-6),
        cross_node=LinkClass("nic", 25e9, 5e-6),
    ),
}


def fabric_named(name: str) -> Fabric:
    """Look up a preset fabric by CLI name."""
    try:
        return FABRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric {name!r}; choose from {sorted(FABRICS)}"
        ) from None


# -- collective forms ---------------------------------------------------------
#
# One entry per collective; Python scalars broadcast.  ``topology`` is a
# :data:`TOPOLOGY_CODES` integer column and ``bucket_bytes`` uses 0 as
# the "monolithic" (None) sentinel.

#: Integer codes the collective forms use for topologies.
TOPOLOGY_CODES = {name: code for code, name in enumerate(TOPOLOGIES)}


def topology_codes(names: Iterable[str]) -> NDArray[Any]:
    """Map topology-name sequences onto :data:`TOPOLOGY_CODES` ints."""
    try:
        return np.array([TOPOLOGY_CODES[name] for name in names],
                        dtype=np.int64)
    except KeyError as error:
        raise ValueError(
            f"unknown topology {error.args[0]!r}; "
            f"choose from {TOPOLOGIES}") from None


def tensor_collective_seconds(payload_bytes: Any, collectives: Any,
                              tp: Any, bandwidth: Any, latency: Any) -> Any:
    """Aggregate time of ``collectives`` ring allgathers over a TP group.

    Each allgather of a ``p_g``-byte gathered tensor over ``tp`` ranks
    costs ``(tp-1) * (p_g/(tp*bw) + lat)``; summed over the step's
    collectives with total gathered payload ``payload_bytes`` this
    factors into the closed form below.
    """
    return (tp - 1) * (payload_bytes / (tp * bandwidth)
                       + collectives * latency)


def pipeline_boundary_seconds(micro_cut_bytes: Any, cuts: Any,
                              bandwidth: Any, latency: Any) -> Any:
    """Exposed fill+drain time of the pipeline's boundary transfers.

    One microbatch's activations cross every cut going forward and its
    gradients cross back — ``2 * (bytes/bw + cuts * lat)``.  Steady-state
    transfers overlap with compute and are not exposed.
    """
    return 2 * (micro_cut_bytes / bandwidth + cuts * latency)


def _bucket_split(
    payload_bytes: NDArray[Any], bucket_bytes: NDArray[Any],
) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """``(full, size, remainder)`` columns of the DDP bucket split."""
    mono = (bucket_bytes <= 0) | (bucket_bytes >= payload_bytes)
    divisor = np.maximum(bucket_bytes, 1)
    full = np.where(mono, 1, payload_bytes // divisor)
    size = np.where(mono, payload_bytes, bucket_bytes)
    rem = np.where(mono, 0, payload_bytes % divisor)
    empty = payload_bytes <= 0
    return (np.where(empty, 0, full), np.where(empty, 0, size),
            np.where(empty, 0, rem))


def n_buckets_batch(payload_bytes: NDArray[Any],
                    bucket_bytes: NDArray[Any]) -> NDArray[Any]:
    """Number of wire buckets each payload splits into (0 if empty)."""
    full, _, rem = _bucket_split(payload_bytes, bucket_bytes)
    return full + (rem > 0)


def _unbucketed_seconds(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    chips_per_node: NDArray[Any],
    bandwidth: "float | NDArray[Any]", latency: "float | NDArray[Any]",
    intra_bandwidth: "float | NDArray[Any] | None" = None,
    intra_latency: "float | NDArray[Any] | None" = None,
) -> NDArray[Any]:
    """Seconds of one unbucketed allreduce, per topology code.

    ``bandwidth`` / ``latency`` describe the cross-node link class;
    ``intra_bandwidth`` / ``intra_latency`` (defaulting to the same
    values — the uniform fabric) price the hierarchical topology's
    in-node stage.
    """
    if intra_bandwidth is None:
        intra_bandwidth = bandwidth
    if intra_latency is None:
        intra_latency = latency
    n = n_chips
    shard_hop = payload_bytes / (n * bandwidth) + latency
    ring = 2 * (n - 1) * shard_hop
    a2a = 2 * shard_hop
    m = chips_per_node
    # Guard k against degenerate (masked-out) entries so the eager
    # numpy arithmetic never divides by zero; valid entries have k >= 1.
    k = np.maximum(n // np.maximum(m, 1), 1)
    in_node = 2 * (payload_bytes / (m * intra_bandwidth) + intra_latency)
    cross = 2 * (k - 1) * (payload_bytes / ((m * k) * bandwidth) + latency)
    hier = (np.where(m > 1, in_node, 0.0)
            + np.where(k > 1, cross, 0.0))
    return np.where(topology == TOPOLOGY_CODES["ring"], ring,
                    np.where(topology == TOPOLOGY_CODES["all_to_all"],
                             a2a, hier))


def allreduce_seconds_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    bucket_bytes: NDArray[Any], chips_per_node: NDArray[Any],
    bandwidth: "float | NDArray[Any]" = DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    latency: "float | NDArray[Any]" = DEFAULT_LINK_LATENCY_S,
    intra_bandwidth: "float | NDArray[Any] | None" = None,
    intra_latency: "float | NDArray[Any] | None" = None,
) -> NDArray[Any]:
    """Total wire seconds of each allreduce (sum over its buckets)."""
    full, size, rem = _bucket_split(payload_bytes, bucket_bytes)
    # Full and remainder buckets priced in one pass (stacked at the
    # grid's broadcast shape).
    size_seconds, rem_seconds = _unbucketed_seconds(
        np.stack(np.broadcast_arrays(
            size, rem, n_chips, topology, chips_per_node)[:2]),
        n_chips, topology, chips_per_node,
        bandwidth, latency, intra_bandwidth, intra_latency)
    seconds = full * size_seconds
    seconds = np.where(rem > 0, seconds + rem_seconds, seconds)
    return np.where((n_chips <= 1) | (payload_bytes <= 0), 0.0, seconds)


def first_bucket_seconds_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    bucket_bytes: NDArray[Any], chips_per_node: NDArray[Any],
    bandwidth: "float | NDArray[Any]" = DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    latency: "float | NDArray[Any]" = DEFAULT_LINK_LATENCY_S,
    intra_bandwidth: "float | NDArray[Any] | None" = None,
    intra_latency: "float | NDArray[Any] | None" = None,
) -> NDArray[Any]:
    """Seconds of each allreduce's first (largest) bucket."""
    _, size, _ = _bucket_split(payload_bytes, bucket_bytes)
    seconds = _unbucketed_seconds(
        size, n_chips, topology, chips_per_node, bandwidth, latency,
        intra_bandwidth, intra_latency)
    return np.where((n_chips <= 1) | (payload_bytes <= 0), 0.0, seconds)


def _unbucketed_link_bytes(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    chips_per_node: NDArray[Any],
) -> NDArray[Any]:
    """Per-chip wire bytes of one unbucketed allreduce (shard-first)."""
    n = n_chips
    flat = 2 * (n - 1) * np.ceil(payload_bytes / n).astype(np.int64)
    m = chips_per_node
    k = np.maximum(n // np.maximum(m, 1), 1)
    shard = np.ceil(payload_bytes / m).astype(np.int64)
    in_node = np.where(m > 1, 2 * (m - 1) * shard, 0)
    cross = np.where(
        k > 1, 2 * (k - 1) * np.ceil(shard / k).astype(np.int64), 0)
    return np.where(topology == TOPOLOGY_CODES["hierarchical"],
                    in_node + cross, flat)


def link_bytes_per_chip_batch(
    payload_bytes: NDArray[Any], n_chips: NDArray[Any], topology: NDArray[Any],
    bucket_bytes: NDArray[Any], chips_per_node: NDArray[Any],
) -> NDArray[Any]:
    """Scheduled per-chip wire bytes of each allreduce, over its buckets."""
    full, size, rem = _bucket_split(payload_bytes, bucket_bytes)
    size_bytes, rem_bytes = _unbucketed_link_bytes(
        np.stack(np.broadcast_arrays(
            size, rem, n_chips, topology, chips_per_node)[:2]),
        n_chips, topology, chips_per_node)
    total = full * size_bytes + np.where(rem > 0, rem_bytes, 0)
    return np.where((n_chips <= 1) | (payload_bytes <= 0), 0, total)


@dataclass(frozen=True)
class InterconnectConfig:
    """Link-level parameters of the chip-to-chip fabric.

    Defaults follow a contemporary accelerator interconnect
    (100 GB/s per direction per link, ~1 microsecond hop latency).

    ``bucket_bytes`` enables DDP-style gradient bucketing (``None`` =
    one monolithic bucket).  ``chips_per_node`` is the island size of
    the ``hierarchical`` topology and must be 1 for the flat ones.

    ``fabric`` switches to heterogeneous link classes; when set it
    *overrides* the scalar ``link_bandwidth_bytes_per_s`` /
    ``link_latency_s`` pair (which then only describes the legacy
    uniform resolution, see :meth:`links`).
    """

    topology: str = "ring"
    link_bandwidth_bytes_per_s: float = DEFAULT_LINK_BANDWIDTH_BYTES_PER_S
    link_latency_s: float = DEFAULT_LINK_LATENCY_S
    bucket_bytes: int | None = None
    chips_per_node: int = 1
    fabric: Fabric | None = None

    @property
    def links(self) -> Fabric:
        """The resolved fabric (uniform from the scalars when unset)."""
        if self.fabric is not None:
            return self.fabric
        return Fabric.uniform(
            self.link_bandwidth_bytes_per_s, self.link_latency_s)

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"choose from {TOPOLOGIES}")
        if self.link_bandwidth_bytes_per_s <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.link_latency_s < 0:
            raise ValueError("link latency cannot be negative")
        if self.bucket_bytes is not None and self.bucket_bytes < 1:
            raise ValueError(
                f"bucket_bytes must be >= 1 (or None), got "
                f"{self.bucket_bytes}")
        if self.chips_per_node < 1:
            raise ValueError(
                f"chips_per_node must be >= 1, got {self.chips_per_node}")
        if self.topology != "hierarchical" and self.chips_per_node != 1:
            raise ValueError(
                "chips_per_node is only meaningful for the "
                f"'hierarchical' topology, not {self.topology!r}")

    def node_grouping_error(self, n_chips: int) -> str | None:
        """Why ``n_chips`` chips cannot share this fabric (``None`` if
        they can): a hierarchical group above one chip (which has no
        collectives) must fill whole nodes."""
        if self.topology == "hierarchical" and n_chips > 1 \
                and n_chips % self.chips_per_node:
            return (f"{n_chips} chips do not group into hierarchical "
                    f"nodes of {self.chips_per_node}; pick a "
                    f"chips_per_node that divides the chip count")
        return None


class Interconnect:
    """Closed-form collective cost model over an :class:`InterconnectConfig`.

    The cost methods evaluate the module's array forms on length-1
    columns built from the config.
    """

    def __init__(self, config: InterconnectConfig | None = None) -> None:
        self.config = config or InterconnectConfig()

    @property
    def topology(self) -> str:
        return self.config.topology

    def _columns(self, payload_bytes: int, n_chips: int,
                 ) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any],
                            NDArray[Any], NDArray[Any]]:
        """Length-1 columns of one collective; validates the node shape."""
        cfg = self.config
        error = cfg.node_grouping_error(n_chips)
        if error is not None and payload_bytes > 0:
            raise ValueError(error)
        return (np.array([payload_bytes]), np.array([n_chips]),
                np.array([TOPOLOGY_CODES[cfg.topology]]),
                np.array([cfg.bucket_bytes or 0]),
                np.array([cfg.chips_per_node]))

    # -- bucketing -----------------------------------------------------------

    def bucket_sizes(self, payload_bytes: int) -> list[int]:
        """The payload split into wire buckets, in schedule order.

        ``bucket_bytes=None`` (or a bucket at least as large as the
        payload) yields one monolithic bucket; otherwise full buckets
        of ``bucket_bytes`` plus one remainder bucket.  Inspection
        helper — the cost forms use the closed-form
        ``(full, size, remainder)`` split and never materialize this
        list.
        """
        full, size, rem = (int(column[0]) for column in _bucket_split(
            np.array([payload_bytes]),
            np.array([self.config.bucket_bytes or 0])))
        return [size] * full + ([rem] if rem else [])

    def n_buckets(self, payload_bytes: int) -> int:
        """Number of wire buckets the payload splits into (0 if empty)."""
        return int(n_buckets_batch(
            np.array([payload_bytes]),
            np.array([self.config.bucket_bytes or 0]))[0])

    # -- time ----------------------------------------------------------------

    def allreduce_seconds(self, payload_bytes: int, n_chips: int) -> float:
        """Wall-clock seconds of one allreduce over ``payload_bytes``.

        With bucketing enabled this is the *total* wire time — the sum
        over the serialized bucket allreduces.  The overlap model in
        :mod:`repro.training.simulate` decides how much of it lands on
        the critical path.
        """
        return float(allreduce_seconds_batch(
            *self._columns(payload_bytes, n_chips),
            *self.config.links.link_params())[0])

    def first_bucket_seconds(self, payload_bytes: int,
                             n_chips: int) -> float:
        """Latency of the first (largest) bucket's allreduce.

        The irreducible exposed floor of an overlapped schedule: the
        last bucket is only produced when backward compute ends, and it
        is never larger than the first, so at least one full-bucket
        allreduce always sticks out past the backward pass.
        """
        return float(first_bucket_seconds_batch(
            *self._columns(payload_bytes, n_chips),
            *self.config.links.link_params())[0])

    # -- wire bytes ----------------------------------------------------------

    @staticmethod
    def allreduce_bytes_per_chip(payload_bytes: int, n_chips: int) -> int:
        """Wire bytes each chip moves for one *flat-topology* allreduce.

        ``2*(N-1) * ceil(payload/N)``: the shard is rounded *first*, so
        the bytes never undercount the ``2*(N-1)`` scheduled transfers.
        The hierarchical topology rounds per stage (``ceil(payload/M)``
        in-node, then ``ceil(shard/K)``) and can land slightly off this
        reference; :meth:`link_bytes_per_chip` gives the scheduled bytes
        of the configured fabric.  Every topology stays at or above the
        unrounded ``2*(N-1)/N * payload`` lower bound.
        """
        return int(link_bytes_per_chip_batch(
            np.array([payload_bytes]), np.array([n_chips]),
            topology_codes(["ring"]), np.array([0]), np.array([1]))[0])

    def link_bytes_per_chip(self, payload_bytes: int, n_chips: int) -> int:
        """Scheduled per-chip wire bytes, bucket- and topology-aware.

        Sums the shard-first-rounded transfers of every bucket, so the
        reported traffic can never undercount what the schedule moves
        (bucketing pays its rounding overhead per bucket).
        """
        return int(link_bytes_per_chip_batch(
            *self._columns(payload_bytes, n_chips))[0])

    def __repr__(self) -> str:
        cfg = self.config
        cross, intra = cfg.links.cross_node, cfg.links.intra_node

        def link(lc: LinkClass) -> str:
            return (f"{lc.bandwidth_bytes_per_s / 1e9:.0f} GB/s, "
                    f"{lc.latency_s * 1e6:.1f} us")

        links = link(cross) if cross == intra else (
            f"cross {cross.name} {link(cross)}; "
            f"intra {intra.name} {link(intra)}")
        extras = ""
        if cfg.topology == "hierarchical":
            extras += f", {cfg.chips_per_node}/node"
        if cfg.bucket_bytes is not None:
            extras += f", {cfg.bucket_bytes / 2**20:.1f} MiB buckets"
        return f"Interconnect({cfg.topology}, {links}{extras})"
