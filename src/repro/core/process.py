"""The repeated balls-into-bins process (anonymous, load-vector level).

The process of the paper: ``n`` balls live in ``n`` bins; in every round one
ball is extracted from each non-empty bin and re-assigned to a bin chosen
uniformly at random (all extractions and re-assignments of a round happen
synchronously).  Because the process is oblivious to ball identities, the
system state is fully described by the load vector, and one round costs a
single ``rng.integers`` draw plus one ``np.bincount`` — no Python-level loop
over bins.

The class also supports the generalization with ``m != n`` balls
(Section 5's open question) and arbitrary initial configurations
(self-stabilization experiments).

Example
-------
>>> process = RepeatedBallsIntoBins(8, seed=0)
>>> result = process.run(16)
>>> result.rounds
16
>>> int(result.final_configuration.n_balls)  # balls are conserved
8
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from ..errors import ConfigurationError, SimulationError
from ..metrics.base import BatchedObserverList
from ..rng import as_generator
from ..types import LoadVector, SeedLike

__all__ = ["RepeatedBallsIntoBins", "SimulationResult"]


@dataclass
class SimulationResult:
    """Summary of a :meth:`RepeatedBallsIntoBins.run` call.

    Attributes
    ----------
    rounds:
        Number of rounds simulated by this call.
    final_configuration:
        The configuration after the last simulated round.
    max_load_seen:
        The largest load observed in any round of this call (the
        window maximum ``max_t M(t)``).
    min_empty_bins_seen:
        The smallest per-round empty-bin count observed in this call.
    first_legitimate_round:
        First round index (within this call, 1-based from the caller's
        starting round) whose configuration was legitimate, or ``None``.
    """

    rounds: int
    final_configuration: LoadConfiguration
    max_load_seen: int
    min_empty_bins_seen: int
    first_legitimate_round: Optional[int] = None
    beta: float = field(default=DEFAULT_BETA)

    @property
    def ended_legitimate(self) -> bool:
        """Whether the final configuration is legitimate for this ``beta``."""
        return self.final_configuration.is_legitimate(self.beta)


class RepeatedBallsIntoBins:
    """Vectorized simulator of the repeated balls-into-bins process.

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    n_balls:
        Number of balls ``m``; defaults to ``n_bins`` (the paper's setting).
        Ignored when ``initial`` is given (the ball count is inferred).
    initial:
        Optional starting configuration: a :class:`LoadConfiguration`, an
        integer array, or ``None`` for the balanced one-ball-per-bin start.
    seed:
        Seed-like value for the internal random generator.

    Notes
    -----
    The simulator mutates an internal ``int64`` buffer; :attr:`loads` returns
    a read-only view and :meth:`configuration` returns an immutable snapshot.
    """

    def __init__(
        self,
        n_bins: int,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        if initial is not None:
            config = initial if isinstance(initial, LoadConfiguration) else LoadConfiguration(np.asarray(initial))
            if config.n_bins != n_bins:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {n_bins}"
                )
            if n_balls is not None and n_balls != config.n_balls:
                raise ConfigurationError(
                    f"n_balls={n_balls} contradicts initial configuration with {config.n_balls} balls"
                )
            self._loads = config.as_array()
        else:
            m = n_bins if n_balls is None else n_balls
            if m < 0:
                raise ConfigurationError(f"n_balls must be >= 0, got {m}")
            self._loads = LoadConfiguration.balanced(n_bins, m).as_array()

        self._n_bins = n_bins
        self._n_balls = int(self._loads.sum())
        self._rng = as_generator(seed)
        self._round = 0

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
        """Number of rounds simulated so far."""
        return self._round

    @property
    def loads(self) -> LoadVector:
        """Read-only view of the current load vector."""
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
    # Dynamics
    # ------------------------------------------------------------------
    def step(self) -> LoadVector:
        """Advance the process by one round and return the new loads (read-only).

        One ball leaves every non-empty bin and lands in a bin chosen
        uniformly at random, independently of everything else.
        """
        loads = self._loads
        nonempty = loads > 0
        departures = int(np.count_nonzero(nonempty))
        if departures:
            loads -= nonempty  # bool array subtracts as 0/1
            destinations = self._rng.integers(0, self._n_bins, size=departures)
            loads += np.bincount(destinations, minlength=self._n_bins)
        self._round += 1
        return self.loads

    def run(
        self,
        rounds: int,
        observers=None,
        beta: float = DEFAULT_BETA,
        stop_when_legitimate: bool = False,
    ) -> SimulationResult:
        """Simulate ``rounds`` rounds, optionally stopping early.

        Parameters
        ----------
        rounds:
            Maximum number of rounds to simulate in this call.
        observers:
            ``None``, a single observer/callable, or a sequence of them; each
            is invoked after every round with ``(round_index, loads)`` where
            ``round_index`` counts from the process' global round counter.
        beta:
            Legitimacy constant used for ``first_legitimate_round`` and for
            the optional early stop.
        stop_when_legitimate:
            When ``True``, stop as soon as a legitimate configuration is
            reached (used by the convergence-time experiments).
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        obs = BatchedObserverList.coerce(observers)
        threshold = legitimacy_threshold(self._n_bins, beta)

        max_load_seen = 0
        min_empty_seen = self._n_bins
        first_legit: Optional[int] = None
        executed = 0

        for _ in range(rounds):
            loads = self.step()
            executed += 1
            current_max = int(loads.max())
            current_empty = int(np.count_nonzero(loads == 0))
            if current_max > max_load_seen:
                max_load_seen = current_max
            if current_empty < min_empty_seen:
                min_empty_seen = current_empty
            if not obs.is_empty:
                obs.observe(self._round, loads)
            if first_legit is None and current_max <= threshold:
                first_legit = self._round
                if stop_when_legitimate:
                    break

        self._check_conservation()
        return SimulationResult(
            rounds=executed,
            final_configuration=self.configuration(),
            max_load_seen=max_load_seen,
            min_empty_bins_seen=min_empty_seen if executed else self.num_empty_bins,
            first_legitimate_round=first_legit,
            beta=beta,
        )

    def run_until_legitimate(
        self, max_rounds: int, beta: float = DEFAULT_BETA, observers=None
    ) -> Optional[int]:
        """Run until a legitimate configuration is reached.

        Returns the (global) round index of the first legitimate
        configuration, or ``None`` if ``max_rounds`` elapsed first.  If the
        current configuration is already legitimate, returns the current
        round index without simulating.
        """
        if self.is_legitimate(beta):
            return self._round
        result = self.run(max_rounds, observers=observers, beta=beta, stop_when_legitimate=True)
        return result.first_legitimate_round

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def inject_loads(self, loads: Union[LoadConfiguration, np.ndarray]) -> None:
        """Replace the current loads with a ball-conserving configuration.

        The single-replica counterpart of
        :meth:`~repro.core.batched.BatchedLoadProcess.inject_loads` — the
        Section 4.1 fault hook: an adversary may reassign balls arbitrarily
        *between* rounds but may not create or destroy them.  Unlike
        :meth:`reset`, the round counter keeps running.
        """
        config = (
            loads
            if isinstance(loads, LoadConfiguration)
            else LoadConfiguration(np.asarray(loads))
        )
        if config.n_bins != self._n_bins:
            raise ConfigurationError(
                f"injected configuration has {config.n_bins} bins, expected {self._n_bins}"
            )
        if config.n_balls != self._n_balls:
            raise ConfigurationError(
                f"injected loads do not conserve balls: expected "
                f"{self._n_balls}, got {config.n_balls}"
            )
        self._loads = config.as_array()

    def reset(self, initial: Union[LoadConfiguration, np.ndarray, None] = None) -> None:
        """Reset to ``initial`` (or the balanced start) and zero the round counter.

        The random generator state is *not* reset; reuse of a simulator for
        several trials therefore continues the same stream.
        """
        if initial is None:
            self._loads = LoadConfiguration.balanced(self._n_bins, self._n_balls).as_array()
        else:
            config = initial if isinstance(initial, LoadConfiguration) else LoadConfiguration(np.asarray(initial))
            if config.n_bins != self._n_bins:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {self._n_bins}"
                )
            self._loads = config.as_array()
            self._n_balls = int(self._loads.sum())
        self._round = 0

    def _check_conservation(self) -> None:
        total = int(self._loads.sum())
        if total != self._n_balls:
            raise SimulationError(
                f"ball count not conserved: expected {self._n_balls}, found {total}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RepeatedBallsIntoBins(n_bins={self._n_bins}, n_balls={self._n_balls}, "
            f"round={self._round}, max_load={self.max_load})"
        )
