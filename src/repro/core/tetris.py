"""The Tetris process and its probabilistic "leaky bins" generalization.

The Tetris process (Section 3 of the paper) is the analytic workhorse used
to dominate the original repeated balls-into-bins process:

* starting from any configuration with at least ``n/4`` empty bins, in each
  round every non-empty bin *discards* one ball (the ball leaves the system),
  and
* exactly ``(3/4) n`` brand-new balls are thrown, each into a bin chosen
  independently and uniformly at random.

Because arrivals are i.i.d. binomial and independent of the state, standard
concentration applies; the paper couples the two processes (Lemma 3) so that
the Tetris maximum load stochastically dominates the original one w.h.p.

:class:`ProbabilisticTetris` implements the follow-up model of
Berenbrink et al. (PODC 2016, reference [18] in the paper) in which the
number of new balls per round is ``Binomial(n, lam)`` for an arrival rate
``lam`` in ``[0, 1]`` — the "leaky bins in batches" process.  It is used by
experiment E15 to show stability for ``lam`` bounded away from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from ..errors import ConfigurationError
from ..metrics.base import BatchedObserverList
from ..rng import as_generator
from ..types import LoadVector, SeedLike

__all__ = ["TetrisProcess", "ProbabilisticTetris", "TetrisResult"]


@dataclass
class TetrisResult:
    """Summary of a Tetris run.

    Attributes
    ----------
    rounds:
        Number of rounds simulated by this call.
    final_configuration:
        Loads after the last round (note: Tetris does *not* conserve balls).
    max_load_seen:
        Window maximum of the per-round maximum load.
    all_bins_emptied_by:
        First round by which every bin had been empty at least once during
        this call, or ``None`` if some bin never emptied (Lemma 4 metric).
    """

    rounds: int
    final_configuration: LoadConfiguration
    max_load_seen: int
    all_bins_emptied_by: Optional[int]


class TetrisProcess:
    """The Tetris process with a deterministic number of arrivals per round.

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    arrivals_per_round:
        Number of new balls thrown per round; defaults to ``floor(3n/4)``
        as in the paper.  The arrival-rate ablation (A3) passes other values.
    initial:
        Starting configuration (defaults to one ball per bin).
    seed:
        Seed-like value.
    """

    def __init__(
        self,
        n_bins: int,
        arrivals_per_round: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        if arrivals_per_round is None:
            arrivals_per_round = (3 * n_bins) // 4
        if arrivals_per_round < 0:
            raise ConfigurationError(
                f"arrivals_per_round must be >= 0, got {arrivals_per_round}"
            )
        self._n_bins = n_bins
        self._arrivals = int(arrivals_per_round)
        if initial is None:
            self._loads = LoadConfiguration.balanced(n_bins).as_array()
        else:
            config = initial if isinstance(initial, LoadConfiguration) else LoadConfiguration(np.asarray(initial))
            if config.n_bins != n_bins:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {n_bins}"
                )
            self._loads = config.as_array()
        self._rng = as_generator(seed)
        self._round = 0

    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def arrivals_per_round(self) -> int:
        return self._arrivals

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def loads(self) -> LoadVector:
        view = self._loads.view()
        view.setflags(write=False)
        return view

    def configuration(self) -> LoadConfiguration:
        """Immutable snapshot of the current configuration."""
        return LoadConfiguration(self._loads)

    @property
    def max_load(self) -> int:
        return int(self._loads.max())

    @property
    def num_empty_bins(self) -> int:
        return int(np.count_nonzero(self._loads == 0))

    def is_legitimate(self, beta: float = DEFAULT_BETA) -> bool:
        """Whether the current configuration is legitimate (max load <= beta*log n)."""
        return self.max_load <= legitimacy_threshold(self._n_bins, beta)

    # ------------------------------------------------------------------
    def _arrival_count(self) -> int:
        """Number of new balls this round (constant for the basic process)."""
        return self._arrivals

    def step(self) -> LoadVector:
        """Advance one round: discard one ball per non-empty bin, then throw
        fresh balls uniformly at random."""
        loads = self._loads
        nonempty = loads > 0
        loads -= nonempty
        arrivals = self._arrival_count()
        if arrivals:
            destinations = self._rng.integers(0, self._n_bins, size=arrivals)
            loads += np.bincount(destinations, minlength=self._n_bins)
        self._round += 1
        return self.loads

    def run(self, rounds: int, observers=None) -> TetrisResult:
        """Simulate ``rounds`` rounds and collect the Lemma 4 / Lemma 6 metrics."""
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        obs = BatchedObserverList.coerce(observers)

        max_load_seen = 0
        first_empty = np.where(self._loads == 0, 0, -1).astype(np.int64)
        executed = 0
        for _ in range(rounds):
            loads = self.step()
            executed += 1
            current_max = int(loads.max())
            if current_max > max_load_seen:
                max_load_seen = current_max
            pending = first_empty < 0
            if pending.any():
                newly = pending & (loads == 0)
                first_empty[newly] = self._round
            if not obs.is_empty:
                obs.observe(self._round, loads)

        all_emptied_by = int(first_empty.max()) if np.all(first_empty >= 0) else None
        return TetrisResult(
            rounds=executed,
            final_configuration=self.configuration(),
            max_load_seen=max_load_seen,
            all_bins_emptied_by=all_emptied_by,
        )

    def reset(self, initial: Union[LoadConfiguration, np.ndarray, None] = None) -> None:
        """Reset loads (default: one ball per bin) and zero the round counter."""
        if initial is None:
            self._loads = LoadConfiguration.balanced(self._n_bins).as_array()
        else:
            config = initial if isinstance(initial, LoadConfiguration) else LoadConfiguration(np.asarray(initial))
            if config.n_bins != self._n_bins:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {self._n_bins}"
                )
            self._loads = config.as_array()
        self._round = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_bins={self._n_bins}, arrivals={self._arrivals}, "
            f"round={self._round}, max_load={self.max_load})"
        )


class ProbabilisticTetris(TetrisProcess):
    """Tetris with ``Binomial(n, lam)`` arrivals per round ("leaky bins").

    Parameters
    ----------
    n_bins:
        Number of bins.
    lam:
        Arrival rate per bin; the expected number of new balls per round is
        ``lam * n``.  Stability requires ``lam < 1``.
    initial, seed:
        As for :class:`TetrisProcess`.
    """

    def __init__(
        self,
        n_bins: int,
        lam: float = 0.75,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ConfigurationError(f"lam must be in [0, 1], got {lam}")
        super().__init__(n_bins, arrivals_per_round=0, initial=initial, seed=seed)
        self._lam = float(lam)

    @property
    def lam(self) -> float:
        return self._lam

    def _arrival_count(self) -> int:
        return int(self._rng.binomial(self._n_bins, self._lam))
