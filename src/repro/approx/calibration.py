"""Conformal quantile calibration for the sampling estimators.

The Hoeffding-style intervals the anytime driver emits are
distribution-free but loose: they bound the worst case over every
Bernoulli mean, while a given workload's estimates concentrate much
faster.  Split conformal calibration closes that gap empirically.  Hold
out pairs of (estimate, exact count) produced by the batch engine,
normalise each residual by the interval half-width the estimator
reported,

    ``s_i = |exact_i − estimate_i| / uncertainty_i``,

sort the scores ascending, and take the score at index
``⌈n · (1 − α)⌉`` as the rescaling quantile ``q`` — exactly the
``calc_optimal_q`` sorted-score-quantile construction.  A calibrated
interval ``estimate ± q · uncertainty`` then has distribution-free
empirical coverage ``≥ 1 − α`` on exchangeable data, however badly the
raw half-width models the true sampling noise.

Edge cases follow the conformal prescription: an empty calibration set
cannot calibrate (raise), and ``n < 1/α`` observations cannot witness
the ``1 − α`` quantile at all — the calibrator then falls back to a
*conservative* quantile (never below 1, i.e. never tighter than the raw
interval) and flags it.

The calibrator is a plain value object with a JSON-friendly payload so
the store can persist it as a ``*.cal`` entry (see
:class:`repro.store.CalibrationDiskCache`).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import ApproximationError

__all__ = ["ConformalCalibrator", "conformal_quantile"]


def conformal_quantile(scores: Sequence[float], alpha: float) -> float:
    """The ``calc_optimal_q`` quantile of a score sample.

    Scores are sorted ascending and the entry at index
    ``⌈n · (1 − α)⌉`` (clamped into range) is returned.  With fewer than
    ``1/α`` scores the empirical distribution cannot witness the
    ``1 − α`` level; the fallback is ``max(1.0, max(scores))`` — never
    tighter than the uncalibrated interval.
    """
    return _sorted_quantile(sorted(scores), alpha)


def _sorted_quantile(ordered: Sequence[float], alpha: float) -> float:
    """:func:`conformal_quantile` of scores already sorted ascending."""
    if not 0.0 < alpha < 1.0:
        raise ApproximationError(f"alpha must lie in (0, 1), got {alpha}")
    if not ordered:
        raise ApproximationError(
            "cannot compute a conformal quantile from an empty "
            "calibration set; observe (estimate, exact) pairs first"
        )
    count = len(ordered)
    if count * alpha < 1.0:
        return max(1.0, ordered[-1])
    index = min(math.ceil(count * (1.0 - alpha)), count - 1)
    return ordered[index]


def _score(estimate: float, uncertainty: float, exact: float) -> float:
    """One observation's normalised residual ``|exact − estimate| / uncertainty``."""
    return abs(exact - estimate) / uncertainty


class ConformalCalibrator:
    """Held-out residual scores and the interval rescaling they induce.

    Observations are (estimate, uncertainty, exact) triples: the
    estimator's point estimate, the raw interval half-width it reported,
    and the exact count the batch engine later produced for the same
    job.  ``uncertainty`` must be positive — a zero half-width carries
    no scale to normalise by.  The scores are also kept sorted as they
    arrive, so :meth:`quantile` reads its index without sorting.
    """

    def __init__(
        self, observations: Iterable[Tuple[float, float, float]] = ()
    ) -> None:
        self._observations: List[Tuple[float, float, float]] = []
        self._sorted_scores: List[float] = []
        for estimate, uncertainty, exact in observations:
            self.observe(estimate, uncertainty, exact)

    # ------------------------------------------------------------------ #
    # accumulation
    # ------------------------------------------------------------------ #
    def observe(self, estimate: float, uncertainty: float, exact: float) -> None:
        """Record one held-out (estimate, exact) pair."""
        if not math.isfinite(uncertainty) or uncertainty <= 0:
            raise ApproximationError(
                f"uncertainty must be a positive finite half-width, "
                f"got {uncertainty}"
            )
        triple = (float(estimate), float(uncertainty), float(exact))
        self._observations.append(triple)
        bisect.insort(self._sorted_scores, _score(*triple))

    def __len__(self) -> int:
        return len(self._observations)

    @property
    def observations(self) -> Tuple[Tuple[float, float, float], ...]:
        return tuple(self._observations)

    def scores(self) -> List[float]:
        """The normalised residuals ``|exact − estimate| / uncertainty``."""
        return [_score(*triple) for triple in self._observations]

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def is_conservative(self, alpha: float) -> bool:
        """True when ``n < 1/α`` forces the conservative fallback."""
        return len(self._observations) * alpha < 1.0

    def quantile(self, alpha: float = 0.1) -> float:
        """The rescaling quantile ``q`` at miscoverage level ``alpha``."""
        return _sorted_quantile(self._sorted_scores, alpha)

    def calibrate(
        self, estimate: float, uncertainty: float, alpha: float = 0.1
    ) -> Tuple[float, float]:
        """Rescale a raw interval: ``estimate ± q · uncertainty``, lo ≥ 0."""
        quantile = self.quantile(alpha)
        margin = quantile * uncertainty
        return (max(0.0, estimate - margin), estimate + margin)

    def coverage(
        self,
        holdout: Iterable[Tuple[float, float, float]],
        alpha: float = 0.1,
    ) -> float:
        """Empirical coverage of the calibrated intervals on a holdout.

        ``holdout`` is a fresh set of (estimate, uncertainty, exact)
        triples; returns the fraction whose exact value lies inside the
        calibrated interval.  This is what benchmark E20 asserts to be
        ``≥ 1 − α`` (within sampling slack).
        """
        quantile = self.quantile(alpha)
        triples = list(holdout)
        if not triples:
            return 0.0
        hits = sum(
            1
            for estimate, uncertainty, exact in triples
            if abs(exact - estimate) <= quantile * uncertainty
        )
        return hits / len(triples)

    # ------------------------------------------------------------------ #
    # persistence (the *.cal store entry payload)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        return {
            "observations": [list(triple) for triple in self._observations]
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ConformalCalibrator":
        observations = payload.get("observations", [])
        if not isinstance(observations, (list, tuple)):
            raise ApproximationError(
                "malformed calibration payload: 'observations' must be a list"
            )
        return cls(tuple(triple) for triple in observations)

    def __repr__(self) -> str:
        return f"ConformalCalibrator({len(self._observations)} observations)"
