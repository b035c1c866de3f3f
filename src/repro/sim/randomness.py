"""Seeded random-number streams for reproducible experiments.

Every stochastic component (application frame complexity, human reaction
times, network jitter, container overhead spikes, ...) draws from its own
named stream so that adding a new component never perturbs the draws seen
by existing ones.  Streams are derived deterministically from a single
experiment seed.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

__all__ = ["RandomStreams", "StreamRandom", "clamp"]


def clamp(x: float, low: float, high: float) -> float:
    """Exactly ``float(np.clip(x, low, high))`` for a scalar ``x`` and non-NaN
    bounds, without numpy's per-call dispatch: a NaN ``x`` passes through,
    a value equal to a bound is kept and ``low > high`` gives ``high``."""
    if x < low:
        x = low
    if high < x:
        x = high
    return float(x)


@functools.lru_cache(maxsize=64)
def _lognormal_shape(cv: float):
    """``(sigma², sigma)`` of the log-normal with coefficient of variation ``cv``."""
    sigma2 = np.log(1.0 + cv * cv)
    return sigma2, np.sqrt(sigma2)


class StreamRandom:
    """A thin convenience wrapper over ``numpy.random.Generator``.

    Adds the distributions the simulator actually uses (truncated normal,
    log-normal parameterized by mean/CV, bounded jitter) so call sites stay
    readable.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    # -- pass-throughs ------------------------------------------------------
    def random(self) -> float:
        return float(self._rng.random())

    def uniform(self, low: float, high: float) -> float:
        # Generator.uniform's checks and formula, without its dispatch.
        span = high - low
        if not 0.0 <= span < math.inf:
            raise ValueError(f"uniform needs a finite high - low >= 0, "
                             f"got low={low}, high={high}")
        return float(low + span * self._rng.random())

    def integers(self, low: int, high: int) -> int:
        return int(self._rng.integers(low, high))

    def normal(self, mean: float, std: float) -> float:
        return float(self._rng.normal(mean, std))

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def choice(self, options, p=None):
        index = self._rng.choice(len(options), p=p)
        return options[int(index)]

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def standard_normal(self, size):
        return self._rng.standard_normal(size)

    # -- derived distributions ----------------------------------------------
    def truncated_normal(self, mean: float, std: float,
                         low: float = 0.0, high: float = float("inf")) -> float:
        """A normal draw clipped to ``[low, high]``.

        Clipping (rather than rejection sampling) keeps the draw count per
        call constant, which keeps streams aligned across configurations.
        """
        return clamp(self._rng.normal(mean, std), low, high)

    def lognormal_mean_cv(self, mean: float, cv: float) -> float:
        """Log-normal draw parameterized by mean and coefficient of variation."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if cv <= 0:
            return float(mean)
        sigma2, sigma = _lognormal_shape(cv)
        mu = np.log(mean) - sigma2 / 2.0
        return float(self._rng.lognormal(mu, sigma))

    def jitter(self, value: float, fraction: float) -> float:
        """``value`` scaled by a uniform factor in ``[1 - f, 1 + f]``."""
        if fraction <= 0:
            return value
        return value * self.uniform(1.0 - fraction, 1.0 + fraction)

    def bernoulli(self, probability: float) -> bool:
        return self._rng.random() < probability


class RandomStreams:
    """A family of independent named random streams under one master seed."""

    def __init__(self, seed: int = 0):
        self.master_seed = int(seed)
        self._streams: dict[str, StreamRandom] = {}

    def stream(self, name: str) -> StreamRandom:
        """Return (creating on first use) the stream with the given name."""
        if name not in self._streams:
            self._streams[name] = StreamRandom(self._derive_seed(name))
        return self._streams[name]

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> list[str]:
        return sorted(self._streams)
