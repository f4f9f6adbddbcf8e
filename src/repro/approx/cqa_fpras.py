"""The FPRAS for #CQA(Q, Σ) specialised to repairs (Corollary 6.4).

For an existential positive query the natural sample space of Theorem 6.2
is the set of repairs itself: one sample draws a uniformly random repair
(one fact per block, independently) and checks whether it entails the
query.  The estimate is ``|rep(D, Σ)|`` times the empirical hit rate, and
the sample size is ``(2+ε)·m^k/ε²·ln(2/δ)`` with ``m`` the largest block
and ``k`` the (per-disjunct) keywidth — both independent of the database
size beyond ``m``.

Two membership tests are available:

* ``"selectors"`` (default) — precompute the certificate selectors once and
  check the sampled choice vector against them; after the certificates are
  computed each sample costs O(#certificates · k).
* ``"evaluate"`` — materialise the sampled repair and evaluate the query on
  it with the generic evaluator.  Slower per sample but requires no
  certificate precomputation; used to cross-validate the selector path.

The relative-frequency estimator (:meth:`CQAFpras.estimate_frequency`) and
the repair-count estimator (:meth:`CQAFpras.estimate_count`) share the same
samples; the former is the quantity Section 1.1 motivates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..db.blocks import BlockDecomposition
from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.facts import Constant
from ..errors import ApproximationError, FragmentError
from ..query.ast import Query
from ..query.classify import is_existential_positive
from ..query.evaluation import holds
from ..query.keywidth import max_disjunct_keywidth
from ..query.rewriting import UCQ, to_ucq, ucq_to_query
from ..query.substitution import bind_answer
from ..repairs.certificates import certificate_selectors, iter_certificates
from ..repairs.counting import PreparedCertificates
from .anytime import SamplingPlan
from .fpras import FPRASResult, sample_size
from .sample import index_drawer, point_in_union

__all__ = ["CQAFprasResult", "CQAFpras"]


def _miss() -> bool:
    """The draw of a plan whose union is empty: a miss, using no randomness."""
    return False


@dataclass(frozen=True)
class CQAFprasResult:
    """Result of an FPRAS run for #CQA, in both count and frequency form."""

    estimate: float
    frequency_estimate: float
    total_repairs: int
    samples: int
    requested_samples: int
    successes: int
    epsilon: float
    delta: float
    keywidth: int
    max_block_size: int
    capped: bool


class CQAFpras:
    """FPRAS for ``#CQA(Q, Σ)`` with the natural (repair) sample space.

    Parameters
    ----------
    query:
        An existential positive query (Boolean, or non-Boolean together
        with an answer tuple passed to :meth:`estimate`).
    keys:
        The primary keys ``Σ``.
    membership:
        ``"selectors"`` or ``"evaluate"`` (see module docstring).
    max_samples:
        Optional cap on the number of samples; results are flagged
        ``capped=True`` when it truncates the theorem's prescription.
    """

    def __init__(
        self,
        query: Union[Query, UCQ],
        keys: PrimaryKeySet,
        membership: str = "selectors",
        max_samples: Optional[int] = None,
    ) -> None:
        if membership not in ("selectors", "evaluate"):
            raise ApproximationError(
                f"membership must be 'selectors' or 'evaluate', got {membership!r}"
            )
        if isinstance(query, Query) and not is_existential_positive(query):
            raise FragmentError(
                "the FPRAS of Corollary 6.4 requires an existential positive "
                "query; #CQA(FO) admits no FPRAS unless RP = NP (Theorem 6.1)"
            )
        self._query = query
        self._keys = keys
        self._membership = membership
        self._max_samples = max_samples

    def _boolean_ucq(self, answer: Sequence[Constant]) -> UCQ:
        query = self._query
        if isinstance(query, UCQ):
            if answer:
                raise FragmentError(
                    "binding an answer tuple to a pre-rewritten UCQ is not "
                    "supported; pass the Query instead"
                )
            return query
        if query.arity:
            return to_ucq(bind_answer(query, answer))
        if answer:
            raise FragmentError("a Boolean query takes no answer tuple")
        return to_ucq(query)

    def plan(
        self,
        database: Database,
        epsilon: float,
        delta: float,
        answer: Sequence[Constant] = (),
        rng: Optional[Union[random.Random, int]] = None,
        decomposition: Optional[BlockDecomposition] = None,
        prepared: Optional[PreparedCertificates] = None,
    ) -> SamplingPlan:
        """Prepare the FPRAS up to (but not including) the sampling loop.

        The returned :class:`~repro.approx.anytime.SamplingPlan` draws
        from the supplied ``rng`` in exactly the order the fixed
        ``estimate()`` loop would, so running it to its full budget is
        bit-identical to ``estimate()`` with the same seed.  With selector
        membership and no certificate, every draw misses without touching
        ``rng``; the result still reports the prescribed sample count.

        ``prepared`` optionally supplies a cached
        :class:`~repro.repairs.counting.PreparedCertificates` for the
        (answer-bound) query: its UCQ and selectors are then reused instead
        of being recomputed, which is how the batch engine amortises the
        certificate computation across repeated estimates.
        """
        if isinstance(rng, int):
            rng = random.Random(rng)
        elif rng is None:
            rng = random.Random()

        if prepared is not None:
            if answer:
                raise FragmentError(
                    "prepared certificates are already answer-bound; pass "
                    "answer=() when supplying them"
                )
            ucq = prepared.ucq
        else:
            ucq = self._boolean_ucq(answer)
        if decomposition is None:
            decomposition = BlockDecomposition(database, self._keys)
        block_sizes = decomposition.block_sizes()
        total_repairs = decomposition.total_repairs()
        max_block = decomposition.max_block_size()
        k = max_disjunct_keywidth(ucq, self._keys)

        requested = sample_size(epsilon, delta, max_block, k)
        samples = requested
        capped = False
        if self._max_samples is not None and requested > self._max_samples:
            samples = self._max_samples
            capped = True

        choose = index_drawer(rng, block_sizes)
        if self._membership == "selectors":
            if prepared is not None:
                selectors = prepared.selectors
            else:
                certificates = list(iter_certificates(database, self._keys, ucq))
                selectors = certificate_selectors(certificates, decomposition, self._keys)

            if selectors:

                def draw() -> bool:
                    return point_in_union(choose(), selectors)

            else:
                # No certificate, so no repair entails the query: every
                # draw misses, and none needs the generator.
                draw = _miss

        else:
            bound_query = ucq_to_query(ucq)

            def draw() -> bool:
                return holds(bound_query, decomposition.repair_from_choices(choose()))

        def estimate_of(successes: int, samples_done: int) -> float:
            frequency = successes / samples_done if samples_done else 0.0
            return total_repairs * frequency

        def finalise(successes: int, samples_done: int) -> CQAFprasResult:
            frequency = successes / samples_done if samples_done else 0.0
            return CQAFprasResult(
                estimate=total_repairs * frequency,
                frequency_estimate=frequency,
                total_repairs=total_repairs,
                samples=samples_done,
                requested_samples=requested,
                successes=successes,
                epsilon=epsilon,
                delta=delta,
                keywidth=k,
                max_block_size=max_block,
                capped=capped,
            )

        return SamplingPlan(
            draw=draw,
            samples=samples,
            requested_samples=requested,
            scale=float(total_repairs),
            epsilon=epsilon,
            delta=delta,
            estimate_of=estimate_of,
            finalise=finalise,
        )

    def estimate(
        self,
        database: Database,
        epsilon: float,
        delta: float,
        answer: Sequence[Constant] = (),
        rng: Optional[Union[random.Random, int]] = None,
        decomposition: Optional[BlockDecomposition] = None,
        prepared: Optional[PreparedCertificates] = None,
    ) -> CQAFprasResult:
        """Run the FPRAS to its full budget and return the result record."""
        plan = self.plan(
            database,
            epsilon,
            delta,
            answer=answer,
            rng=rng,
            decomposition=decomposition,
            prepared=prepared,
        )
        successes = 0
        for _ in range(plan.samples):
            if plan.draw():
                successes += 1
        return plan.finalise(successes, plan.samples)

    def estimate_count(
        self,
        database: Database,
        epsilon: float,
        delta: float,
        answer: Sequence[Constant] = (),
        rng: Optional[Union[random.Random, int]] = None,
    ) -> float:
        """Convenience: the estimated number of repairs entailing the query."""
        return self.estimate(database, epsilon, delta, answer=answer, rng=rng).estimate

    def estimate_frequency(
        self,
        database: Database,
        epsilon: float,
        delta: float,
        answer: Sequence[Constant] = (),
        rng: Optional[Union[random.Random, int]] = None,
    ) -> float:
        """Convenience: the estimated relative frequency of the answer."""
        return self.estimate(
            database, epsilon, delta, answer=answer, rng=rng
        ).frequency_estimate
