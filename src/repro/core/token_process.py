"""Identity-tracking repeated balls-into-bins ("token level").

The anonymous simulator in :mod:`repro.core.process` is enough for every
load statement of the paper, but Section 4 (multi-token traversal) reasons
about *individual balls*: how many steps of its own random walk a ball has
performed ("progress"), how long it waits inside queues ("delay"), and when
every ball has visited every bin ("parallel cover time").  This module keeps
ball identities, per-bin queues ordered by arrival, and a pluggable
:class:`~repro.core.queueing.QueueDiscipline`.

The state is a hybrid representation chosen for speed:

* ``ball_bin`` — an ``int64`` array mapping ball id → current bin;
* ``queues``  — a list of Python lists, one per bin, holding ball ids in
  arrival order (index 0 = oldest resident);
* optional per-ball bookkeeping arrays (moves, waiting rounds, visited
  bitmap) updated with vectorized NumPy operations on the set of balls that
  moved this round.

Only the queue-selection loop iterates over non-empty bins in Python; the
rest of a round is array work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from .queueing import QueueDiscipline, get_discipline
from ..errors import ConfigurationError, SimulationError
from ..metrics.base import BatchedObserverList
from ..rng import as_generator
from ..types import LoadVector, SeedLike

__all__ = ["TokenRepeatedBallsIntoBins", "TokenProcessResult"]


@dataclass
class TokenProcessResult:
    """Summary of a token-level run.

    Attributes
    ----------
    rounds:
        Number of rounds simulated by this call.
    max_load_seen:
        Window maximum load, seeded from the configuration at call time
        (a zero-round call reports the observed max, never 0).
    min_empty_seen:
        Window minimum of the empty-bin count, seeded from the
        configuration at call time — the same window convention as
        ``max_load_seen``, making this result comparable with the other
        run loops (:class:`~repro.core.process.RepeatedBallsIntoBins`,
        the graph walks, the batched engines).
    cover_time:
        First (global) round at which every ball had visited every bin, or
        ``None`` if coverage was not reached within the simulated window.
        Only populated when the process was built with ``track_visits=True``.
    ball_cover_times:
        Per-ball first round of full coverage (-1 where not yet covered).
    moves:
        Per-ball number of random-walk steps performed so far.
    min_moves:
        Smallest per-ball progress (the quantity the paper bounds from below
        by ``Omega(t / log n)`` under FIFO).
    """

    rounds: int
    max_load_seen: int
    min_empty_seen: int
    cover_time: Optional[int]
    ball_cover_times: Optional[np.ndarray]
    moves: np.ndarray
    min_moves: int


class TokenRepeatedBallsIntoBins:
    """Repeated balls-into-bins with ball identities and per-bin queues.

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    n_balls:
        Number of balls ``m`` (default ``n``).
    discipline:
        Queue discipline name or instance (default FIFO, the paper's choice
        for the cover-time corollary).
    initial:
        Optional initial *load* configuration; balls ``0..m-1`` are dealt to
        bins from bin 0 upward so that the load vector matches.  ``None``
        places ball ``i`` in bin ``i % n``.
    track_visits:
        Keep the per-ball visited-bin bitmap needed for cover times.  Costs
        ``O(m * n)`` bits of memory; disable for pure load experiments.
    seed:
        Seed-like value.
    """

    def __init__(
        self,
        n_bins: int,
        n_balls: Optional[int] = None,
        discipline: Union[str, QueueDiscipline] = "fifo",
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        track_visits: bool = False,
        seed: SeedLike = None,
    ) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        m = n_bins if n_balls is None else int(n_balls)
        if m < 0:
            raise ConfigurationError(f"n_balls must be >= 0, got {m}")

        self._n_bins = n_bins
        self._n_balls = m
        self._discipline = get_discipline(discipline)
        self._rng = as_generator(seed)
        self._round = 0
        self._track_visits = bool(track_visits)

        # --- place balls ------------------------------------------------
        if initial is None:
            ball_bin = np.arange(m, dtype=np.int64) % n_bins
        else:
            config = initial if isinstance(initial, LoadConfiguration) else LoadConfiguration(np.asarray(initial))
            if config.n_bins != n_bins:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {n_bins}"
                )
            if config.n_balls != m and n_balls is not None:
                raise ConfigurationError(
                    f"n_balls={m} contradicts initial configuration with {config.n_balls} balls"
                )
            m = config.n_balls
            self._n_balls = m
            ball_bin = np.repeat(np.arange(n_bins, dtype=np.int64), config.loads)

        self._ball_bin = ball_bin
        self._queues: List[List[int]] = [[] for _ in range(n_bins)]
        for ball in range(m):
            self._queues[int(ball_bin[ball])].append(ball)

        self._loads = np.bincount(ball_bin, minlength=n_bins).astype(np.int64)
        self._moves = np.zeros(m, dtype=np.int64)
        self._waiting_rounds = np.zeros(m, dtype=np.int64)

        if self._track_visits:
            self._visited = np.zeros((m, n_bins), dtype=bool)
            if m:
                self._visited[np.arange(m), ball_bin] = True
            self._visited_counts = self._visited.sum(axis=1).astype(np.int64)
            self._ball_cover_time = np.where(self._visited_counts >= n_bins, 0, -1).astype(np.int64)
        else:
            self._visited = None
            self._visited_counts = None
            self._ball_cover_time = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def n_balls(self) -> int:
        return self._n_balls

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def discipline(self) -> QueueDiscipline:
        return self._discipline

    @property
    def loads(self) -> LoadVector:
        view = self._loads.view()
        view.setflags(write=False)
        return view

    @property
    def ball_bins(self) -> np.ndarray:
        """Read-only view: current bin of every ball."""
        view = self._ball_bin.view()
        view.setflags(write=False)
        return view

    @property
    def moves(self) -> np.ndarray:
        """Read-only view: number of random-walk steps per ball (progress)."""
        view = self._moves.view()
        view.setflags(write=False)
        return view

    @property
    def waiting_rounds(self) -> np.ndarray:
        """Read-only view: total rounds each ball spent waiting (not selected)."""
        view = self._waiting_rounds.view()
        view.setflags(write=False)
        return view

    @property
    def visited_counts(self) -> Optional[np.ndarray]:
        """Distinct bins visited per ball (``None`` unless ``track_visits``)."""
        if self._visited_counts is None:
            return None
        view = self._visited_counts.view()
        view.setflags(write=False)
        return view

    def configuration(self) -> LoadConfiguration:
        return LoadConfiguration(self._loads)

    @property
    def max_load(self) -> int:
        return int(self._loads.max()) if self._n_bins else 0

    @property
    def num_empty_bins(self) -> int:
        return int(np.count_nonzero(self._loads == 0))

    def is_legitimate(self, beta: float = DEFAULT_BETA) -> bool:
        return self.max_load <= legitimacy_threshold(self._n_bins, beta)

    @property
    def all_covered(self) -> bool:
        """Whether every ball has visited every bin (requires ``track_visits``)."""
        if self._ball_cover_time is None:
            raise ConfigurationError("cover tracking disabled; construct with track_visits=True")
        return bool(np.all(self._ball_cover_time >= 0))

    @property
    def cover_time(self) -> Optional[int]:
        """Round at which the last ball completed coverage, or ``None``."""
        if self._ball_cover_time is None:
            raise ConfigurationError("cover tracking disabled; construct with track_visits=True")
        if not np.all(self._ball_cover_time >= 0):
            return None
        return int(self._ball_cover_time.max())

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self) -> LoadVector:
        """Advance the token-level process by one synchronous round."""
        n = self._n_bins
        rng = self._rng
        queues = self._queues
        discipline = self._discipline

        nonempty_bins = np.flatnonzero(self._loads > 0)
        h = nonempty_bins.size
        if h == 0:
            self._round += 1
            return self.loads

        # --- select one ball per non-empty bin (based on start-of-round state)
        selected = np.empty(h, dtype=np.int64)
        for i, bin_index in enumerate(nonempty_bins):
            queue = queues[bin_index]
            pos = discipline.select(queue, rng)
            selected[i] = queue.pop(pos)

        # waiting balls accumulate one round of delay
        self._waiting_rounds += 1
        self._waiting_rounds[selected] -= 1

        # --- re-assign selected balls uniformly at random ----------------
        destinations = rng.integers(0, n, size=h)
        self._ball_bin[selected] = destinations
        self._moves[selected] += 1

        # arrival order among simultaneous arrivals: we shuffle so that no
        # bin-index bias leaks into FIFO order (the paper allows arbitrary
        # tie-breaking; a random one is the least structured choice).
        order = rng.permutation(h)
        for idx in order:
            queues[int(destinations[idx])].append(int(selected[idx]))

        # --- update loads (departures then arrivals) ----------------------
        self._loads[nonempty_bins] -= 1
        self._loads += np.bincount(destinations, minlength=n)

        self._round += 1

        # --- visit bookkeeping -------------------------------------------
        if self._track_visits:
            newly = ~self._visited[selected, destinations]
            if newly.any():
                movers = selected[newly]
                self._visited[movers, destinations[newly]] = True
                self._visited_counts[movers] += 1
                finished = movers[self._visited_counts[movers] >= n]
                pending = finished[self._ball_cover_time[finished] < 0]
                self._ball_cover_time[pending] = self._round

        return self.loads

    def run(
        self,
        rounds: int,
        observers=None,
        stop_when_covered: bool = False,
    ) -> TokenProcessResult:
        """Simulate up to ``rounds`` rounds.

        Parameters
        ----------
        rounds:
            Maximum number of rounds for this call.
        observers:
            Optional observers receiving ``(round_index, loads)`` per round.
        stop_when_covered:
            Stop as soon as every ball has visited every bin (requires
            ``track_visits=True``).
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        if stop_when_covered and not self._track_visits:
            raise ConfigurationError("stop_when_covered requires track_visits=True")
        obs = BatchedObserverList.coerce(observers)

        max_load_seen = self.max_load
        min_empty_seen = self.num_empty_bins
        executed = 0
        for _ in range(rounds):
            loads = self.step()
            executed += 1
            current_max = int(loads.max())
            if current_max > max_load_seen:
                max_load_seen = current_max
            current_empty = int(np.count_nonzero(loads == 0))
            if current_empty < min_empty_seen:
                min_empty_seen = current_empty
            if not obs.is_empty:
                obs.observe(self._round, loads)
            if stop_when_covered and self.all_covered:
                break

        self._check_consistency()
        cover = self.cover_time if self._track_visits else None
        ball_cover = (
            np.array(self._ball_cover_time, copy=True) if self._ball_cover_time is not None else None
        )
        moves = np.array(self._moves, copy=True)
        return TokenProcessResult(
            rounds=executed,
            max_load_seen=max_load_seen,
            min_empty_seen=min_empty_seen,
            cover_time=cover,
            ball_cover_times=ball_cover,
            moves=moves,
            min_moves=int(moves.min()) if moves.size else 0,
        )

    def run_until_covered(self, max_rounds: int, observers=None) -> Optional[int]:
        """Run until full coverage; return the cover time or ``None`` on timeout."""
        result = self.run(max_rounds, observers=observers, stop_when_covered=True)
        return result.cover_time

    # ------------------------------------------------------------------
    def _check_consistency(self) -> None:
        if int(self._loads.sum()) != self._n_balls:
            raise SimulationError("token process lost balls (load sum mismatch)")
        queue_total = sum(len(q) for q in self._queues)
        if queue_total != self._n_balls:
            raise SimulationError("token process queues inconsistent with ball count")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TokenRepeatedBallsIntoBins(n_bins={self._n_bins}, n_balls={self._n_balls}, "
            f"discipline={self._discipline.name!r}, round={self._round})"
        )
