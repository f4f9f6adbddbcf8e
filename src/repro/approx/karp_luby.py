"""Karp–Luby-style estimator over the "complex" sample space.

The FPRAS the paper inherits from Dalvi and Suciu [5] for query probability
over disjoint-independent probabilistic databases does *not* sample from the
natural space of possible worlds: that would need exponentially many samples
when the target probability is tiny.  Instead it samples from the space of
pairs ``(certificate, world-inside-the-certificate's-box)`` — the classical
Karp–Luby union-of-sets estimator.  The paper's discussion at the end of
Section 6 and in Section 7.2 contrasts its own natural-sample-space scheme
(simple, but with an ``m^k`` sample factor) against this one (slightly more
involved, but polynomial even for unbounded selector length).  Benchmarks
E6 and E11 measure exactly that trade-off.

The estimator implemented here works for any finite union of boxes, so it
covers #CQA, #DisjPoskDNF/#DisjPosDNF and #kForbColoring/#ForbColoring
uniformly:

1. compute the box sizes ``|box_1|, ..., |box_N|`` and their sum ``T``,
2. per sample: pick a box ``j`` with probability ``|box_j| / T``, pick a
   point uniformly inside ``box_j``, and output the indicator that ``j`` is
   the *first* (lowest-index) box containing that point,
3. the estimate is ``T`` times the sample mean.

The mean of the indicator is ``|union| / T ≥ 1/N``, so ``O(N/ε² · ln(1/δ))``
samples give an (ε, δ) guarantee — with ``N`` the number of certificates,
never ``m^k``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ApproximationError
from ..lams.compactor import Compactor
from ..lams.selectors import Selector
from .anytime import SamplingPlan
from .sample import index_drawer

__all__ = [
    "KarpLubyResult",
    "karp_luby_sample_size",
    "KarpLubyEstimator",
    "estimate_union_karp_luby",
    "karp_luby_plan",
]


@dataclass(frozen=True)
class KarpLubyResult:
    """Outcome of a Karp–Luby estimation run."""

    estimate: float
    samples: int
    successes: int
    total_box_mass: int
    boxes: int
    epsilon: float
    delta: float

    @property
    def hit_rate(self) -> float:
        """Fraction of samples whose box was the first containing the point."""
        if self.samples == 0:
            return 0.0
        return self.successes / self.samples


def karp_luby_sample_size(epsilon: float, delta: float, boxes: int) -> int:
    """Sample bound ``t = ⌈(2+ε) · N / ε² · ln(2/δ)⌉`` for ``N`` boxes.

    Mirrors the Chernoff argument of Theorem 6.2 with the lower bound
    ``|union| / T ≥ 1/N`` replacing ``f(x)/|U| ≥ 1/m^k``.
    """
    if epsilon <= 0:
        raise ApproximationError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ApproximationError(f"delta must lie in (0, 1), got {delta}")
    if boxes <= 0:
        return 1
    bound = (2 + epsilon) * boxes / (epsilon ** 2) * math.log(2 / delta)
    return max(1, math.ceil(bound))


def _box_size(domain_sizes: Sequence[int], total: int, selector: Selector) -> int:
    """``|box|``: the product space divided by the pinned domains' sizes.

    Exact because a box only pins a domain with at least one element.
    """
    return total // math.prod(domain_sizes[index] for index, _ in selector.pins)


def karp_luby_plan(
    domain_sizes: Sequence[int],
    selectors: Sequence[Selector],
    epsilon: float,
    delta: float,
    rng: Optional[Union[random.Random, int]] = None,
    max_samples: Optional[int] = None,
) -> SamplingPlan:
    """Prepare the Karp–Luby estimator up to the sampling loop.

    The plan draws from ``rng`` in exactly the order
    :func:`estimate_union_karp_luby` would, so a full-budget run is
    bit-identical to the fixed path with the same seed.  A union with no
    boxes yields a degenerate plan with a zero sample budget.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    elif rng is None:
        rng = random.Random()

    sizes = tuple(domain_sizes)
    boxes = list(selectors)
    if not boxes:
        def finalise_empty(successes: int, samples_done: int) -> KarpLubyResult:
            return KarpLubyResult(0.0, 0, 0, 0, 0, epsilon, delta)

        return SamplingPlan(
            draw=lambda: False,
            samples=0,
            requested_samples=0,
            scale=0.0,
            epsilon=epsilon,
            delta=delta,
            estimate_of=lambda successes, samples_done: 0.0,
            finalise=finalise_empty,
        )

    total = math.prod(sizes)
    box_sizes = [_box_size(sizes, total, selector) for selector in boxes]
    total_mass = sum(box_sizes)
    requested = karp_luby_sample_size(epsilon, delta, len(boxes))
    samples = requested
    if max_samples is not None:
        samples = min(samples, max_samples)

    # Cumulative distribution for box selection proportional to box size.
    cumulative: List[int] = []
    running = 0
    for size in box_sizes:
        running += size
        cumulative.append(running)

    pick = index_drawer(rng, (total_mass,))
    inside = index_drawer(rng, sizes)
    pins = [selector.as_dict() for selector in boxes]

    def draw() -> bool:
        # Pick the box, then a uniform point inside it.
        (target,) = pick()
        box_index = _bisect(cumulative, target)
        point = inside(pins[box_index])
        # Indicator: is the chosen box the first one containing the point?
        return _first_containing(boxes, point) == box_index

    def estimate_of(successes: int, samples_done: int) -> float:
        return total_mass * successes / samples_done if samples_done else 0.0

    def finalise(successes: int, samples_done: int) -> KarpLubyResult:
        return KarpLubyResult(
            estimate=estimate_of(successes, samples_done),
            samples=samples_done,
            successes=successes,
            total_box_mass=total_mass,
            boxes=len(boxes),
            epsilon=epsilon,
            delta=delta,
        )

    return SamplingPlan(
        draw=draw,
        samples=samples,
        requested_samples=requested,
        scale=float(total_mass),
        epsilon=epsilon,
        delta=delta,
        estimate_of=estimate_of,
        finalise=finalise,
    )


def estimate_union_karp_luby(
    domain_sizes: Sequence[int],
    selectors: Sequence[Selector],
    epsilon: float,
    delta: float,
    rng: Optional[Union[random.Random, int]] = None,
    max_samples: Optional[int] = None,
) -> KarpLubyResult:
    """Estimate ``|⋃ boxes|`` with the Karp–Luby estimator.

    ``domain_sizes`` and ``selectors`` describe the boxes exactly as in
    :mod:`repro.lams.union_of_boxes`; the answer approximates the same
    quantity that :func:`~repro.lams.union_of_boxes.count_union_of_boxes`
    computes exactly.
    """
    plan = karp_luby_plan(
        domain_sizes, selectors, epsilon, delta, rng=rng, max_samples=max_samples
    )
    successes = 0
    for _ in range(plan.samples):
        if plan.draw():
            successes += 1
    return plan.finalise(successes, plan.samples)


def _bisect(cumulative: Sequence[int], target: int) -> int:
    """Index of the first cumulative value strictly greater than ``target``."""
    low, high = 0, len(cumulative) - 1
    while low < high:
        middle = (low + high) // 2
        if cumulative[middle] > target:
            high = middle
        else:
            low = middle + 1
    return low


def _first_containing(boxes: Sequence[Selector], point: Sequence[int]) -> int:
    for index, selector in enumerate(boxes):
        if all(point[coordinate] == element for coordinate, element in selector.pins):
            return index
    raise AssertionError("the sampled point must lie in its own box")


class KarpLubyEstimator:
    """Karp–Luby estimator bound to a compactor (the baseline of E6/E11)."""

    def __init__(self, compactor: Compactor, max_samples: Optional[int] = None) -> None:
        self._compactor = compactor
        self._max_samples = max_samples

    def plan(
        self,
        instance,
        epsilon: float,
        delta: float,
        rng: Optional[Union[random.Random, int]] = None,
    ) -> SamplingPlan:
        """Prepare an anytime plan over the compactor's boxes."""
        return karp_luby_plan(
            self._compactor.domain_sizes(instance),
            self._compactor.selectors(instance),
            epsilon,
            delta,
            rng=rng,
            max_samples=self._max_samples,
        )

    def estimate(
        self,
        instance,
        epsilon: float,
        delta: float,
        rng: Optional[Union[random.Random, int]] = None,
    ) -> KarpLubyResult:
        """Estimate ``unfold_M(instance)`` from the compactor's boxes."""
        return estimate_union_karp_luby(
            self._compactor.domain_sizes(instance),
            self._compactor.selectors(instance),
            epsilon,
            delta,
            rng=rng,
            max_samples=self._max_samples,
        )

    def __call__(
        self,
        instance,
        epsilon: float,
        delta: float,
        rng: Optional[Union[random.Random, int]] = None,
    ) -> float:
        """Convenience: return only the numeric estimate."""
        return self.estimate(instance, epsilon, delta, rng=rng).estimate
