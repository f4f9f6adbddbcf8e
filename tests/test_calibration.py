"""Tests for conformal calibration and the statistics helpers.

Three layers are pinned here:

* :func:`~repro.approx.conformal_quantile` and
  :class:`~repro.approx.ConformalCalibrator` follow the split-conformal
  prescription exactly — the sorted-score quantile at index
  ``⌈n · (1 − α)⌉``, an error on an empty calibration set, and a
  conservative (never tighter than the raw interval) fallback when
  ``n < 1/α``;
* end to end, calibrating on real Karp–Luby residuals yields intervals
  that are *tighter* than the raw Hoeffding ones yet still achieve the
  ``≥ 1 − α`` empirical coverage on a held-out set of ≥ 200 pairs;
* the :mod:`repro.approx.statistics` helpers (``wilson_interval``,
  ``empirical_error_rate``) behave at their boundaries — zero trials,
  zero successes, all successes, unusual confidence levels.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.approx import (
    ConformalCalibrator,
    conformal_quantile,
    empirical_error_rate,
    karp_luby_plan,
    run_plan,
    wilson_interval,
)
from repro.errors import ApproximationError
from repro.lams import Selector, count_union_of_boxes


class TestConformalQuantile:
    def test_empty_calibration_set_raises(self):
        with pytest.raises(ApproximationError, match="empty"):
            conformal_quantile([], alpha=0.1)

    def test_alpha_must_lie_in_the_open_unit_interval(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ApproximationError, match="alpha"):
                conformal_quantile([0.5], alpha)

    def test_small_samples_fall_back_conservatively(self):
        # n·α < 1: the empirical distribution cannot witness the 1−α
        # level, so the quantile must never tighten the raw interval …
        assert conformal_quantile([0.2, 0.3], alpha=0.1) == 1.0
        # … and must never clip an observed score larger than 1 either.
        assert conformal_quantile([0.2, 3.5], alpha=0.1) == 3.5

    def test_sorted_score_index_matches_the_prescription(self):
        scores = [i / 100 for i in range(1, 101)]  # 0.01 … 1.00
        random.Random(3).shuffle(scores)  # order must not matter
        # n = 100, α = 0.1 → index ⌈90⌉ = 90 (0-based) → 91st order stat.
        assert conformal_quantile(scores, alpha=0.1) == pytest.approx(0.91)

    def test_index_is_clamped_into_range(self):
        # ⌈n·(1−α)⌉ = n for tiny α; the quantile is then the max score.
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert conformal_quantile(scores, alpha=0.05) == 1.0

    def test_duplicate_residuals_are_handled(self):
        # Ties are common in practice (identical jobs → identical
        # residuals); the quantile is simply the tied value.
        scores = [0.5] * 20
        assert conformal_quantile(scores, alpha=0.1) == 0.5
        mixed = [0.25] * 15 + [0.75] * 5
        assert conformal_quantile(mixed, alpha=0.1) == 0.75


class TestConformalCalibrator:
    def test_observe_rejects_degenerate_uncertainty(self):
        calibrator = ConformalCalibrator()
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ApproximationError, match="uncertainty"):
                calibrator.observe(10.0, bad, 11.0)
        assert len(calibrator) == 0

    def test_scores_are_normalised_residuals(self):
        calibrator = ConformalCalibrator([(10.0, 2.0, 11.0), (4.0, 0.5, 3.0)])
        assert calibrator.scores() == [0.5, 2.0]

    def test_quantile_raises_on_an_empty_table(self):
        with pytest.raises(ApproximationError, match="empty"):
            ConformalCalibrator().quantile(0.1)

    def test_is_conservative_flags_small_tables(self):
        small = ConformalCalibrator([(1.0, 1.0, 1.0)] * 5)
        large = ConformalCalibrator([(1.0, 1.0, 1.0)] * 50)
        assert small.is_conservative(0.1)
        assert not large.is_conservative(0.1)

    def test_calibrate_rescales_and_clamps_at_zero(self):
        # 20 observations, all with score 0.5 → q = 0.5.
        calibrator = ConformalCalibrator([(10.0, 2.0, 11.0)] * 20)
        lo, hi = calibrator.calibrate(estimate=8.0, uncertainty=4.0, alpha=0.1)
        assert (lo, hi) == (6.0, 10.0)
        lo, hi = calibrator.calibrate(estimate=1.0, uncertainty=4.0, alpha=0.1)
        assert lo == 0.0 and hi == 3.0  # counts are never negative

    def test_payload_round_trip(self):
        calibrator = ConformalCalibrator([(10.0, 2.0, 11.0), (4.0, 0.5, 3.0)])
        clone = ConformalCalibrator.from_payload(calibrator.to_payload())
        assert clone.observations == calibrator.observations
        assert clone.quantile(0.4) == calibrator.quantile(0.4)

    def test_malformed_payload_is_rejected(self):
        with pytest.raises(ApproximationError, match="observations"):
            ConformalCalibrator.from_payload({"observations": "nope"})

    @pytest.mark.parametrize("seed", range(12))
    def test_incremental_quantile_matches_a_fresh_sort(self, seed):
        # The calibrator keeps its scores sorted as they arrive; every
        # quantile must equal the one sorted from scratch, through the
        # n < 1/alpha fallback and past it, with ties and zero residuals.
        rng = random.Random(seed)
        calibrator = ConformalCalibrator()
        arrived = []
        for _ in range(rng.randint(1, 60)):
            estimate = float(rng.choice([rng.uniform(0, 50), rng.randint(0, 5)]))
            exact = estimate if rng.random() < 0.2 else float(rng.randint(0, 50))
            triple = (estimate, rng.choice([0.5, 1.0, rng.uniform(0.1, 9.0)]), exact)
            calibrator.observe(*triple)
            arrived.append(triple)
            for alpha in (0.05, 0.1, 0.3):
                assert calibrator.quantile(alpha) == conformal_quantile(
                    calibrator.scores(), alpha
                )
        assert calibrator.observations == tuple(arrived)
        assert calibrator.to_payload() == {
            "observations": [list(triple) for triple in arrived]
        }


def _karp_luby_pairs(count: int, seed: int):
    """(estimate, raw half-width, exact) triples from real estimator runs.

    Random unions of boxes, each estimated once by a capped Karp–Luby
    anytime run; the exact count comes from the inclusion–exclusion
    counter.  Everything derives from ``seed`` — the pairs, and therefore
    the coverage numbers below, are bit-reproducible.
    """
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        dims = rng.randint(3, 4)
        sizes = tuple(rng.randint(2, 5) for _ in range(dims))
        boxes = []
        for _ in range(rng.randint(1, 3)):
            pinned = rng.sample(range(dims), rng.randint(1, 2))
            boxes.append(
                Selector({dim: rng.randrange(sizes[dim]) for dim in pinned})
            )
        exact = count_union_of_boxes(sizes, boxes)
        plan = karp_luby_plan(
            sizes,
            boxes,
            epsilon=0.4,
            delta=0.2,
            rng=rng.randrange(2**32),
            max_samples=64,
        )
        if plan.samples == 0:
            continue
        trace = run_plan(plan)
        half_width = trace.raw_half_width
        if not math.isfinite(half_width) or half_width <= 0:
            continue
        pairs.append((trace.estimate, half_width, float(exact)))
    return pairs


class TestEndToEndCoverage:
    def test_calibrated_intervals_cover_a_holdout_at_alpha_10(self):
        # Satellite: ≥ 90% empirical coverage at α = 0.1 on ≥ 200
        # held-out pairs, with both halves produced by the real
        # estimator stack (not synthetic residuals).
        pairs = _karp_luby_pairs(1000, seed=4)
        calibration, holdout = pairs[:750], pairs[750:]
        assert len(holdout) >= 200
        calibrator = ConformalCalibrator(calibration)
        assert not calibrator.is_conservative(0.1)
        coverage = calibrator.coverage(holdout, alpha=0.1)
        assert coverage >= 0.90

    def test_calibration_tightens_the_hoeffding_radius(self):
        # The whole point: the conformal quantile is well below 1 on
        # this workload, i.e. calibrated intervals are strictly tighter
        # than the distribution-free Hoeffding ones.
        pairs = _karp_luby_pairs(300, seed=4)
        calibrator = ConformalCalibrator(pairs)
        assert calibrator.quantile(0.1) < 0.5

    def test_empty_holdout_reports_zero_coverage(self):
        calibrator = ConformalCalibrator([(1.0, 1.0, 1.0)] * 20)
        assert calibrator.coverage([], alpha=0.1) == 0.0


class TestWilsonInterval:
    def test_zero_trials_is_the_vacuous_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_zero_successes_pins_the_lower_end(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert 0.0 < hi < 0.15  # small but nonzero upper bound

    def test_all_successes_pins_the_upper_end(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == pytest.approx(1.0)
        assert 0.85 < lo < 1.0

    def test_interval_brackets_the_proportion(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_higher_confidence_widens_the_interval(self):
        lo90, hi90 = wilson_interval(40, 100, confidence=0.90)
        lo99, hi99 = wilson_interval(40, 100, confidence=0.99)
        assert lo99 < lo90 and hi90 < hi99

    def test_unusual_confidence_falls_back_to_95(self):
        # Confidence ≈ 1 has no tabulated z; the helper documents a
        # fall-back to the 95% quantile rather than extrapolating.
        assert wilson_interval(40, 100, confidence=0.9999) == wilson_interval(
            40, 100, confidence=0.95
        )

    def test_bounds_are_clamped_to_the_unit_interval(self):
        lo, hi = wilson_interval(1, 2, confidence=0.99)
        assert 0.0 <= lo <= hi <= 1.0


class TestEmpiricalErrorRate:
    def test_runs_the_estimator_the_requested_number_of_times(self):
        calls = []
        summary = empirical_error_rate(
            lambda: calls.append(1) or 10.0, exact=10.0, epsilon=0.1, trials=7
        )
        assert len(calls) == 7
        assert summary.trials == 7
        assert summary.within_epsilon_rate == 1.0

    def test_zero_trials_yields_an_empty_summary(self):
        summary = empirical_error_rate(lambda: 1.0, 10.0, 0.1, trials=0)
        assert summary.trials == 0
        assert summary.within_epsilon_rate == 0.0
        assert summary.mean == 0.0 and summary.max_relative_error == 0.0

    def test_exact_zero_counts_absolute_misses(self):
        summary = empirical_error_rate(
            iter([0.0, 2.0, 0.0]).__next__, exact=0.0, epsilon=0.1, trials=3
        )
        assert summary.within_epsilon_rate == pytest.approx(2 / 3)
        assert summary.max_relative_error == 2.0
