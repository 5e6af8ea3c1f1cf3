"""Batched constrained parallel walks: R replicas on one shared topology.

This is the graph generalization of
:class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`: ``R``
independent replicas of the topology-constrained parallel-walk process
(:class:`~repro.graphs.walks.ConstrainedParallelWalks`) advance as one
vectorized ``(R, n)`` load matrix over a single shared CSR
:class:`~repro.graphs.topology.Topology`.  A round costs one flat
neighbor draw over the combined ``r * n + node`` index space plus a single
``np.bincount`` — instead of ``R`` separate Python-level simulations.

Both walk modes are supported:

``constrained=True`` (the paper's model)
    Every non-empty node forwards exactly one token to a uniformly random
    neighbor per round; the rest of the queue waits.
``constrained=False`` (the idealized comparison process)
    Every token moves independently every round — no queueing — so the
    gap between the two modes quantifies the congestion introduced by the
    one-token-per-round constraint.

With ``R == 1`` and the same seed the trajectory is **stream-equal** to
the sequential simulator in either mode: the flat index order (row-major
over ``(R, n)``) visits the single replica's nodes exactly as
``np.flatnonzero`` / ``np.repeat`` do sequentially, and
:meth:`Topology.sample_neighbors` consumes one ``rng.random`` draw per
token in both paths.

Like :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`, two
kernels drive the update: the pure-numpy reference above, and the
compiled C kernel (``core/ensemble_kernel.c``, built on demand through
:mod:`repro.core.native`) under its CSR destination rules, with
independent per-replica xoshiro256++ streams, which collapses a whole
``run()`` into one FFI call — the source of the order-of-magnitude
ensemble speedups
(``benchmarks/bench_batched.py`` enforces them).  ``kernel="auto"`` (the
default) uses the native kernel when a C compiler is available and falls
back to numpy silently; ``REPRO_NATIVE=0`` forces numpy everywhere.

Example
-------
Tokens are conserved per replica and every window metric is a
length-``R`` vector:

>>> from .generators import resolve_topology
>>> walks = BatchedConstrainedWalks(resolve_topology("cycle:8"), 4, seed=0)
>>> result = walks.run(16)
>>> result.final_loads.sum(axis=1).tolist()
[8, 8, 8, 8]
>>> result.max_load_seen.shape
(4,)
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .topology import Topology
from ..core.batched import BatchedLoadProcess
from ..core.config import LoadConfiguration
from ..core.native import DEST_CSR_ALL, DEST_CSR_ONE
from ..types import SeedLike

__all__ = ["BatchedConstrainedWalks"]


class BatchedConstrainedWalks(BatchedLoadProcess):
    """Vectorized ensemble of ``R`` constrained parallel-walk replicas.

    Parameters
    ----------
    topology:
        The shared graph every replica walks on (one CSR adjacency in
        memory, regardless of ``R``).
    n_replicas:
        Number of independent replicas ``R``.
    n_tokens:
        Tokens per replica (default: one per node, the paper's setting).
        Ignored when ``initial`` is given.
    initial:
        ``None`` for the balanced start, a single configuration
        replicated across replicas, or a 2-D ``(R, n)`` matrix of
        per-replica starts.
    constrained:
        ``True`` (default) forwards one token per non-empty node per
        round; ``False`` moves every token independently.
    seed:
        Seed-like value; with ``R == 1`` and the numpy kernel the
        trajectory matches
        :class:`~repro.graphs.walks.ConstrainedParallelWalks` under the
        same seed, step for step.
    kernel:
        ``"numpy"`` (reference), ``"native"`` (compiled; raises when no C
        compiler is available), or ``"auto"`` (native when possible).
    n_threads:
        Worker threads for native-kernel calls; see
        :class:`~repro.core.batched.BatchedLoadProcess`.  Never changes
        results.
    """

    native_family = "walks"

    def __init__(
        self,
        topology: Topology,
        n_replicas: int,
        n_tokens: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        constrained: bool = True,
        seed: SeedLike = None,
        kernel: str = "auto",
        n_threads: Optional[int] = None,
    ) -> None:
        super().__init__(
            topology.num_nodes,
            n_replicas,
            n_balls=n_tokens,
            initial=initial,
            seed=seed,
            n_threads=n_threads,
            kernel=kernel,
        )
        self._topology = topology
        self._constrained = bool(constrained)
        self._csr_cache: Optional[tuple] = None
        self._scratch_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def num_nodes(self) -> int:
        return self._n_bins

    @property
    def constrained(self) -> bool:
        return self._constrained

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """One round for all active replicas with a single flat draw.

        Non-empty cells (constrained) or token multiplicities
        (unconstrained) are flattened over the combined ``r * n + node``
        index space; :meth:`Topology.sample_neighbors` draws one uniform
        neighbor per departing token, destinations are shifted back into
        their replica's block, and one ``np.bincount`` scatters the
        arrivals of the whole ensemble.
        """
        loads = self._loads
        active = self._active
        n = self._n_bins
        if self._constrained:
            nonempty = loads > 0
            if not active.all():
                nonempty &= active[:, None]
            cells = np.flatnonzero(nonempty.ravel())
            if cells.size == 0:
                return
            nodes = cells % n
            loads -= nonempty
            destinations = self._topology.sample_neighbors(nodes, self._rng)
            # cells - nodes is the replica block offset r * n
            combined = cells - nodes + destinations
            loads += np.bincount(
                combined, minlength=self._n_replicas * n
            ).reshape(self._n_replicas, n)
        else:
            if active.all():
                multiplicities = loads.ravel()
            else:
                multiplicities = (loads * active[:, None]).ravel()
            cells = np.repeat(
                np.arange(multiplicities.size, dtype=np.int64), multiplicities
            )
            if cells.size == 0:
                return
            nodes = cells % n
            destinations = self._topology.sample_neighbors(nodes, self._rng)
            combined = cells - nodes + destinations
            arrivals = np.bincount(
                combined, minlength=self._n_replicas * n
            ).reshape(self._n_replicas, n)
            loads[active] = arrivals[active]

    # ------------------------------------------------------------------
    # Dynamics — native kernel
    # ------------------------------------------------------------------
    def _native_supported(self) -> bool:
        neighbors, _ = self._topology.csr()
        return super()._native_supported() and neighbors.size < 2**31

    def _native_csr(self) -> tuple:
        """Kernel-ready CSR arrays (int32 neighbors/degrees, Lemire limits)."""
        if self._csr_cache is None:
            neighbors, offsets = self._topology.csr()
            degrees = np.ascontiguousarray(np.diff(offsets), dtype=np.int32)
            # Lemire rejection threshold (2**32 - d) % d, one per node
            d64 = degrees.astype(np.uint64)
            lims = ((np.uint64(2**32) - d64) % d64).astype(np.uint32)
            self._csr_cache = (
                np.ascontiguousarray(neighbors, dtype=np.int32),
                np.ascontiguousarray(offsets, dtype=np.int64),
                degrees,
                np.ascontiguousarray(lims),
            )
        return self._csr_cache

    def _native_scratch(self, n_threads: int) -> tuple:
        """Per-thread kernel work buffers, resized when the thread count
        grows: ``(n_threads, n)`` arrivals rows (all-zero between calls —
        the kernel restores the invariant) and source-compaction rows."""
        if self._scratch_cache is None or self._scratch_cache[0] < n_threads:
            self._scratch_cache = (
                n_threads,
                np.zeros((n_threads, self._n_bins), dtype=np.int32),
                np.empty((n_threads, self._n_bins), dtype=np.int32),
            )
        return self._scratch_cache[1], self._scratch_cache[2]

    def _native_rule(self, n_threads: int) -> tuple:
        """A CSR neighbor draw for one token per non-empty node
        (constrained) or for every token, over the cached CSR arrays and
        per-thread work buffers."""
        rule = DEST_CSR_ONE if self._constrained else DEST_CSR_ALL
        return (rule, *self._native_csr(), *self._native_scratch(n_threads))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "constrained" if self._constrained else "independent"
        return (
            f"BatchedConstrainedWalks(topology={self._topology.name!r}, "
            f"n_replicas={self._n_replicas}, mode={mode}, "
            f"kernel={self._kernel!r}, rounds<= {self.round_index})"
        )
