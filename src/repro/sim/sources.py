"""Arrival processes for request streams.

Every source yields strictly increasing arrival times until a horizon.
Poisson is the default (and what the analytic queueing terms assume); MMPP
adds burstiness for robustness experiments; deterministic and trace sources
support closed-form sanity checks and replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.rng import SeedLike, as_generator


#: cap on exponential gaps drawn per block, bounding a chunked stream's
#: pending arrivals per task
_POISSON_BLOCK_CAP = 8192


def _poisson_block(rate: float, horizon_s: float) -> int:
    """Gaps drawn per block: ~1.2x the expected count, so one block almost
    always suffices, capped at ``_POISSON_BLOCK_CAP``.  The one-shot
    generator and :class:`PoissonStream` use the same size, so both
    accumulate arrival times block by block identically."""
    return min(_POISSON_BLOCK_CAP, max(16, int(rate * horizon_s * 1.2) + 16))


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson process with mean rate ``rate`` (req/s)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"Poisson rate must be positive, got {self.rate}")

    def generate(self, horizon_s: float, seed: SeedLike = None) -> np.ndarray:
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        rng = as_generator(seed)
        # draw in blocks until past the horizon
        out = []
        t = 0.0
        block = _poisson_block(self.rate, horizon_s)
        while t < horizon_s:
            gaps = rng.exponential(1.0 / self.rate, size=block)
            times = t + np.cumsum(gaps)
            out.append(times)
            t = float(times[-1])
        arr = np.concatenate(out)
        return arr[arr < horizon_s]


@dataclass(frozen=True)
class DeterministicArrivals:
    """Evenly spaced arrivals (period = 1/rate), starting at one period."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")

    def generate(self, horizon_s: float, seed: SeedLike = None) -> np.ndarray:
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        period = 1.0 / self.rate
        n = int(np.floor(horizon_s / period))
        times = np.arange(1, n + 1) * period
        return times[times < horizon_s]  # arrivals strictly before the horizon


@dataclass(frozen=True)
class MMPPArrivals:
    """2-state Markov-modulated Poisson process (bursty arrivals).

    Alternates between a low-rate and a high-rate phase with exponential
    holding times; overall mean rate is the holding-time-weighted average.
    """

    low_rate: float
    high_rate: float
    mean_low_s: float = 5.0
    mean_high_s: float = 1.0

    def __post_init__(self) -> None:
        if self.low_rate <= 0 or self.high_rate <= 0:
            raise ConfigError("MMPP rates must be positive")
        if self.high_rate < self.low_rate:
            raise ConfigError("high_rate must be >= low_rate")
        if self.mean_low_s <= 0 or self.mean_high_s <= 0:
            raise ConfigError("MMPP holding times must be positive")

    @property
    def mean_rate(self) -> float:
        total = self.mean_low_s + self.mean_high_s
        return (self.low_rate * self.mean_low_s + self.high_rate * self.mean_high_s) / total

    def generate(self, horizon_s: float, seed: SeedLike = None) -> np.ndarray:
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        rng = as_generator(seed)
        out = []
        t = 0.0
        high = bool(rng.integers(2))
        while t < horizon_s:
            hold = float(
                rng.exponential(self.mean_high_s if high else self.mean_low_s)
            )
            phase_end = min(t + hold, horizon_s)
            rate = self.high_rate if high else self.low_rate
            tt = t
            while True:
                tt += float(rng.exponential(1.0 / rate))
                if tt >= phase_end:
                    break
                out.append(tt)
            t = phase_end
            high = not high
        return np.array(out)


def arrival_times(
    rate: float,
    horizon_s: float,
    arrival: str = "poisson",
    burst_factor: float = 4.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Arrival-time vector for one request stream of mean ``rate``.

    Shared by the event-loop and fast-path simulators so both consume the
    exact same draws from ``seed``.  ``arrival`` selects the process; for
    ``"mmpp"`` the low rate is solved so the long-run mean matches ``rate``
    at a high phase of ``burst_factor × rate``.
    """
    if arrival == "poisson":
        return PoissonArrivals(rate).generate(horizon_s, seed)
    if arrival == "deterministic":
        return DeterministicArrivals(rate).generate(horizon_s, seed)
    if arrival != "mmpp":
        raise ConfigError(f"unknown arrival process {arrival!r}")
    high = rate * burst_factor
    mean_low_s, mean_high_s = 5.0, 1.0
    low = (rate * (mean_low_s + mean_high_s) - high * mean_high_s) / mean_low_s
    low = max(low, rate * 0.05)
    return MMPPArrivals(low, high, mean_low_s, mean_high_s).generate(horizon_s, seed)


class ArrivalStream:
    """Incremental arrival generation for the chunked streaming sweep.

    Yields the *same* arrival times as the one-shot ``arrival_times`` call
    for the same seed, but window by window:  :meth:`take_until` returns the
    arrivals in ``[previous boundary, t_end)`` and can be called with
    increasing boundaries until the horizon.  Bit-identity holds because
    NumPy ``Generator`` draws are stream-sequential — splitting one
    ``rng.exponential(size=n)`` call into several smaller calls consumes the
    identical underlying bit stream and yields the identical values — so the
    gap sequence (and therefore every arrival time) matches the one-shot
    array exactly, independent of the window boundaries.

    Subclasses implement :meth:`_refill`, which extends the internal buffer
    past ``t_end`` (or to the horizon) while consuming the RNG in exactly
    the order the corresponding one-shot generator does.
    """

    def __init__(self, horizon_s: float) -> None:
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        self.horizon_s = horizon_s
        self._buffer = np.empty(0, dtype=np.float64)
        self._cursor = 0.0  # previous window boundary
        self._exhausted = False

    def _refill(self, t_end: float) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def take_until(self, t_end: float) -> np.ndarray:
        """Arrivals in ``[previous boundary, min(t_end, horizon))``."""
        if t_end < self._cursor:
            raise ConfigError(
                f"window end {t_end:.6g} precedes cursor {self._cursor:.6g}"
            )
        t_end = min(t_end, self.horizon_s)
        while not self._exhausted and (
            self._buffer.size == 0 or self._buffer[-1] < t_end
        ):
            self._refill(t_end)
        split = int(np.searchsorted(self._buffer, t_end, side="left"))
        out = self._buffer[:split]
        self._buffer = self._buffer[split:]
        self._cursor = t_end
        return out[out < self.horizon_s]


class PoissonStream(ArrivalStream):
    """Chunked :class:`PoissonArrivals` (identical gap sequence and blocks)."""

    def __init__(self, rate: float, horizon_s: float, seed: SeedLike = None) -> None:
        if rate <= 0:
            raise ConfigError(f"Poisson rate must be positive, got {rate}")
        super().__init__(horizon_s)
        self.rate = rate
        self._rng = as_generator(seed)
        self._t = 0.0  # last generated arrival (buffer tail)
        # same block size as the one-shot generator: ``t + cumsum(block)``
        # then rounds identically, not just the underlying draws
        self._block = _poisson_block(rate, horizon_s)

    def _refill(self, t_end: float) -> None:
        del t_end
        if self._t >= self.horizon_s:
            self._exhausted = True
            return
        gaps = self._rng.exponential(1.0 / self.rate, size=self._block)
        times = self._t + np.cumsum(gaps)
        self._t = float(times[-1])
        self._buffer = np.concatenate([self._buffer, times])


class DeterministicStream(ArrivalStream):
    """Chunked :class:`DeterministicArrivals` (pure arithmetic, no RNG)."""

    def __init__(self, rate: float, horizon_s: float, seed: SeedLike = None) -> None:
        del seed
        if rate <= 0:
            raise ConfigError(f"rate must be positive, got {rate}")
        super().__init__(horizon_s)
        self.rate = rate
        self._next = 1  # next arrival index (arrival k occurs at k/rate)

    def _refill(self, t_end: float) -> None:
        period = 1.0 / self.rate
        # mirror the one-shot construction exactly: times = arange(...) * period
        last = int(np.floor(self.horizon_s / period))
        hi = min(self._next + 8192, last + 1)
        if self._next > last:
            self._exhausted = True
            return
        times = np.arange(self._next, hi) * period
        self._next = hi
        if hi > last:
            self._exhausted = True
        self._buffer = np.concatenate([self._buffer, times[times < self.horizon_s]])


class MMPPStream(ArrivalStream):
    """Chunked :class:`MMPPArrivals`, consuming draws in the one-shot order.

    The one-shot generator alternates phases (one exponential holding-time
    draw each) and draws per-arrival gaps one at a time, discarding the
    overshoot draw that crosses the phase boundary; this stream replays that
    exact sequence, so the produced arrivals are bit-identical.
    """

    def __init__(self, process: MMPPArrivals, horizon_s: float, seed: SeedLike = None) -> None:
        super().__init__(horizon_s)
        self.process = process
        self._rng = as_generator(seed)
        self._t = 0.0
        self._high = bool(self._rng.integers(2))

    def _refill(self, t_end: float) -> None:
        del t_end
        p = self.process
        if self._t >= self.horizon_s:
            self._exhausted = True
            return
        out = []
        # one phase per refill: the arrivals of a phase share one rate
        hold = float(
            self._rng.exponential(p.mean_high_s if self._high else p.mean_low_s)
        )
        phase_end = min(self._t + hold, self.horizon_s)
        rate = p.high_rate if self._high else p.low_rate
        tt = self._t
        while True:
            tt += float(self._rng.exponential(1.0 / rate))
            if tt >= phase_end:
                break
            out.append(tt)
        self._t = phase_end
        self._high = not self._high
        if out:
            self._buffer = np.concatenate([self._buffer, np.array(out)])
        if self._t >= self.horizon_s:
            self._exhausted = True


def arrival_stream(
    rate: float,
    horizon_s: float,
    arrival: str = "poisson",
    burst_factor: float = 4.0,
    seed: SeedLike = None,
) -> ArrivalStream:
    """Chunked counterpart of :func:`arrival_times`.

    Consuming the returned stream window by window yields exactly the
    arrivals ``arrival_times(rate, horizon_s, arrival, burst_factor, seed)``
    returns in one array, for any window boundaries — the contract the
    streaming sweep's bit-identity rests on.
    """
    if arrival == "poisson":
        return PoissonStream(rate, horizon_s, seed)
    if arrival == "deterministic":
        return DeterministicStream(rate, horizon_s, seed)
    if arrival != "mmpp":
        raise ConfigError(f"unknown arrival process {arrival!r}")
    high = rate * burst_factor
    mean_low_s, mean_high_s = 5.0, 1.0
    low = (rate * (mean_low_s + mean_high_s) - high * mean_high_s) / mean_low_s
    low = max(low, rate * 0.05)
    return MMPPStream(
        MMPPArrivals(low, high, mean_low_s, mean_high_s), horizon_s, seed
    )


@dataclass(frozen=True)
class TraceArrivals:
    """Replay explicit arrival timestamps (strictly increasing)."""

    times: Sequence[float]

    def __post_init__(self) -> None:
        arr = np.asarray(self.times, dtype=float)
        if arr.ndim != 1:
            raise ConfigError("trace must be 1-D")
        if arr.size and (np.any(arr < 0) or np.any(np.diff(arr) <= 0)):
            raise ConfigError("trace times must be non-negative, strictly increasing")

    def generate(self, horizon_s: float, seed: SeedLike = None) -> np.ndarray:
        arr = np.asarray(self.times, dtype=float)
        return arr[arr < horizon_s]
