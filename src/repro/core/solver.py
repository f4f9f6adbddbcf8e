"""The public façade: :class:`CQASolver`.

A solver is bound to one inconsistent database and one set of primary keys
and exposes, behind a single object, every operation the paper discusses:

* total repair counting and repair enumeration/sampling,
* the decision problem #CQA>0,
* exact #CQA counting (naive / certificate-based),
* the FPRAS of Corollary 6.4 and the Karp–Luby baseline,
* relative frequencies and answer rankings,
* query diagnostics (fragment, keywidth, the Λ-level the instance lives in).

The block decomposition is computed once and shared by every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from ..db.blocks import BlockDecomposition
from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.facts import Constant
from ..errors import FragmentError
from ..query.ast import Query
from ..query.classify import QueryClass, classify, is_existential_positive
from ..query.keywidth import keywidth, max_disjunct_keywidth
from ..query.parser import parse_query
from ..query.rewriting import UCQ, to_ucq
from ..query.substitution import bind_answer
from ..approx.anytime import AnytimeResult, SamplingPlan, run_plan
from ..approx.cqa_fpras import CQAFpras, CQAFprasResult
from ..approx.karp_luby import estimate_union_karp_luby, karp_luby_plan
from ..repairs.counting import (
    CountReport,
    PreparedCertificates,
    count_repairs_satisfying,
    prepare_certificates,
)
from ..repairs.decision import decide
from ..repairs.enumeration import count_total_repairs, enumerate_repairs, sample_repair
from ..repairs.frequency import AnswerFrequency, answer_frequencies

__all__ = [
    "CQAResult",
    "QueryDiagnostics",
    "CQASolver",
    "build_sampling_plan",
    "count_query",
    "count_query_anytime",
]

#: Methods handled by the randomised estimators rather than the exact counters.
RANDOMISED_METHODS = ("fpras", "karp-luby")


def _as_rng(rng: Optional[Union[random.Random, int]]) -> random.Random:
    """A generator from a seed, a generator, or ``None`` (fresh entropy)."""
    if isinstance(rng, int):
        return random.Random(rng)
    return random.Random() if rng is None else rng


def _karp_luby_certificates(
    database: Database,
    keys: PrimaryKeySet,
    query: Query,
    answer: Tuple[Constant, ...],
    decomposition: BlockDecomposition,
    prepared: Optional[PreparedCertificates],
) -> PreparedCertificates:
    """The answer-bound certificates the Karp–Luby estimator samples over."""
    if prepared is not None:
        return prepared
    if answer and not query.arity:
        raise FragmentError("a Boolean query takes no answer tuple")
    bound = bind_answer(query, answer) if query.arity else query
    if not is_existential_positive(bound):
        raise FragmentError(
            "randomised estimation requires an existential positive query"
        )
    return prepare_certificates(database, keys, bound, decomposition=decomposition)


@dataclass(frozen=True)
class QueryDiagnostics:
    """Static facts about a query w.r.t. the solver's key set."""

    query_class: QueryClass
    keywidth: int
    max_disjunct_keywidth: Optional[int]
    disjuncts: Optional[int]
    admits_fpras: bool
    lambda_level: Optional[int]

    def __str__(self) -> str:
        level = f"Λ[{self.lambda_level}]" if self.lambda_level is not None else "#P (no Λ level)"
        return (
            f"{self.query_class}; kw={self.keywidth}; "
            f"level={level}; FPRAS={'yes' if self.admits_fpras else 'no (unless RP=NP)'}"
        )


@dataclass(frozen=True)
class CQAResult:
    """The answer to a #CQA request, with provenance.

    ``satisfying`` is exact when ``method`` is an exact strategy and an
    estimate when the FPRAS or the Karp–Luby baseline produced it (the
    ``is_estimate`` flag records which).
    """

    satisfying: float
    total: int
    method: str
    is_estimate: bool
    answer: Tuple[Constant, ...]
    details: object = None

    @property
    def frequency(self) -> float:
        """Relative frequency of the answer (estimated iff the count is)."""
        if self.total == 0:
            return 0.0
        return self.satisfying / self.total

    @property
    def exact_frequency(self) -> Fraction:
        """Exact frequency as a fraction; only valid for exact methods."""
        if self.is_estimate:
            raise ValueError("exact_frequency is undefined for estimated results")
        if self.total == 0:
            return Fraction(0)
        return Fraction(int(self.satisfying), self.total)

    def __str__(self) -> str:
        kind = "≈" if self.is_estimate else "="
        return (
            f"#CQA {kind} {self.satisfying:g} of {self.total} repairs "
            f"(frequency {kind} {self.frequency:.4f}, method={self.method})"
        )


def count_query(
    database: Database,
    keys: PrimaryKeySet,
    query: Union[Query, str],
    answer: Sequence[Constant] = (),
    method: str = "auto",
    epsilon: float = 0.1,
    delta: float = 0.05,
    max_samples: Optional[int] = None,
    rng: Optional[Union[random.Random, int]] = None,
    decomposition: Optional[BlockDecomposition] = None,
    prepared: Optional[PreparedCertificates] = None,
) -> CQAResult:
    """The solver-free counting kernel behind :meth:`CQASolver.count`.

    A module-level function taking only picklable inputs, so worker
    processes (and anything else that does not want to build a
    :class:`CQASolver`) can run every counting strategy directly.  All
    provenance-preserving state can be supplied from caches:

    ``decomposition``
        A precomputed block decomposition of ``(database, keys)``.
    ``prepared``
        A precomputed :class:`~repro.repairs.counting.PreparedCertificates`
        for the *answer-bound* query (certificate-family exact methods, the
        FPRAS selector membership and the Karp–Luby estimator all reuse it).

    ``rng`` may be a seed or a generator; it is only consulted by the
    randomised methods, which makes seeded calls fully deterministic.
    """
    if isinstance(query, str):
        query = parse_query(query)
    answer = tuple(answer)
    if decomposition is None:
        decomposition = BlockDecomposition(database, keys)

    if method not in RANDOMISED_METHODS:
        report: CountReport = count_repairs_satisfying(
            database,
            keys,
            query,
            answer,
            method=method,
            decomposition=decomposition,
            prepared=prepared,
        )
        return CQAResult(
            satisfying=report.satisfying,
            total=report.total,
            method=report.method,
            is_estimate=False,
            answer=answer,
            details=report,
        )

    rng = _as_rng(rng)
    if method == "fpras":
        # Cached certificates are already answer-bound: their UCQ takes no answer.
        scheme = CQAFpras(
            query if prepared is None else prepared.ucq, keys, max_samples=max_samples
        )
        result = scheme.estimate(
            database,
            epsilon,
            delta,
            answer=answer if prepared is None else (),
            rng=rng,
            decomposition=decomposition,
            prepared=prepared,
        )
        total = result.total_repairs
    else:
        # Karp-Luby over the certificate boxes.
        prepared = _karp_luby_certificates(
            database, keys, query, answer, decomposition, prepared
        )
        result = estimate_union_karp_luby(
            decomposition.block_sizes(),
            prepared.selectors,
            epsilon,
            delta,
            rng=rng,
            max_samples=max_samples,
        )
        total = decomposition.total_repairs()
    return CQAResult(
        satisfying=result.estimate,
        total=total,
        method=method,
        is_estimate=True,
        answer=answer,
        details=result,
    )


def build_sampling_plan(
    database: Database,
    keys: PrimaryKeySet,
    query: Union[Query, str],
    answer: Sequence[Constant] = (),
    method: str = "fpras",
    epsilon: float = 0.1,
    delta: float = 0.05,
    max_samples: Optional[int] = None,
    rng: Optional[Union[random.Random, int]] = None,
    decomposition: Optional[BlockDecomposition] = None,
    prepared: Optional[PreparedCertificates] = None,
) -> Tuple[SamplingPlan, BlockDecomposition]:
    """Prepare (but do not run) a randomised method's sampling plan.

    The plan draws from ``rng`` in exactly the order the fixed
    :func:`count_query` path would, so running it to its full budget is
    bit-identical to the fixed-(ε, δ) result for the same seed.  Only the
    randomised methods have plans; exact methods raise.
    """
    if method not in RANDOMISED_METHODS:
        raise FragmentError(
            f"only the randomised methods {RANDOMISED_METHODS} have sampling "
            f"plans, got {method!r}"
        )
    if isinstance(query, str):
        query = parse_query(query)
    answer = tuple(answer)
    rng = _as_rng(rng)
    if decomposition is None:
        decomposition = BlockDecomposition(database, keys)

    if method == "fpras":
        scheme = CQAFpras(
            query if prepared is None else prepared.ucq, keys, max_samples=max_samples
        )
        plan = scheme.plan(
            database,
            epsilon,
            delta,
            answer=answer if prepared is None else (),
            rng=rng,
            decomposition=decomposition,
            prepared=prepared,
        )
        return plan, decomposition

    prepared = _karp_luby_certificates(
        database, keys, query, answer, decomposition, prepared
    )
    plan = karp_luby_plan(
        decomposition.block_sizes(),
        prepared.selectors,
        epsilon,
        delta,
        rng=rng,
        max_samples=max_samples,
    )
    return plan, decomposition


def count_query_anytime(
    database: Database,
    keys: PrimaryKeySet,
    query: Union[Query, str],
    answer: Sequence[Constant] = (),
    method: str = "fpras",
    epsilon: float = 0.1,
    delta: float = 0.05,
    max_samples: Optional[int] = None,
    rng: Optional[Union[random.Random, int]] = None,
    decomposition: Optional[BlockDecomposition] = None,
    prepared: Optional[PreparedCertificates] = None,
    max_latency: Optional[float] = None,
    max_error: Optional[float] = None,
    chunk_size: Optional[int] = None,
    calibrator=None,
    alpha: float = 0.1,
    clock=None,
) -> Tuple[CQAResult, AnytimeResult]:
    """The anytime counterpart of :func:`count_query`.

    Runs the randomised method through the chunked anytime driver,
    stopping on whichever of ``max_latency`` / ``max_error`` / the
    sample budget fires first, and returns the counting result together
    with the full :class:`~repro.approx.anytime.AnytimeResult` trace
    (snapshots, stop reason, native estimator record).  With no latency
    or error cap, the result is bit-identical to :func:`count_query`
    under the same seed.
    """
    answer = tuple(answer)
    plan, decomposition = build_sampling_plan(
        database,
        keys,
        query,
        answer=answer,
        method=method,
        epsilon=epsilon,
        delta=delta,
        max_samples=max_samples,
        rng=rng,
        decomposition=decomposition,
        prepared=prepared,
    )
    driver_kwargs = {}
    if clock is not None:
        driver_kwargs["clock"] = clock
    anytime = run_plan(
        plan,
        max_latency=max_latency,
        max_error=max_error,
        chunk_size=chunk_size,
        calibrator=calibrator,
        alpha=alpha,
        **driver_kwargs,
    )
    record = anytime.result
    total = (
        record.total_repairs
        if isinstance(record, CQAFprasResult)
        else decomposition.total_repairs()
    )
    result = CQAResult(
        satisfying=record.estimate,
        total=total,
        method=method,
        is_estimate=True,
        answer=answer,
        details=record,
    )
    return result, anytime


class CQASolver:
    """Counting-based consistent query answering over one database.

    Parameters
    ----------
    database:
        The (possibly inconsistent) database ``D``.
    keys:
        The set ``Σ`` of primary keys.
    rng:
        Random generator or seed shared by the randomised methods; pass a
        seed for reproducible experiments.
    """

    def __init__(
        self,
        database: Database,
        keys: PrimaryKeySet,
        rng: Optional[Union[random.Random, int]] = None,
    ) -> None:
        self._database = database
        self._keys = keys
        self._rng = _as_rng(rng)
        self._decomposition = BlockDecomposition(database, keys)

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> Database:
        """The database the solver is bound to."""
        return self._database

    @property
    def keys(self) -> PrimaryKeySet:
        """The primary keys the solver is bound to."""
        return self._keys

    @property
    def decomposition(self) -> BlockDecomposition:
        """The (cached) block decomposition ``B1 ≺ ... ≺ Bn``."""
        return self._decomposition

    def is_consistent(self) -> bool:
        """True iff the database satisfies every key (a single repair: itself)."""
        return self._decomposition.is_consistent()

    def total_repairs(self) -> int:
        """``|rep(D, Σ)|`` — polynomial-time, the denominator of frequencies."""
        return self._decomposition.total_repairs()

    def repairs(self, limit: Optional[int] = None):
        """Enumerate repairs (optionally limited); exponential in general."""
        return enumerate_repairs(
            self._database, self._keys, decomposition=self._decomposition, limit=limit
        )

    def sample_repair(self) -> Database:
        """Draw one repair uniformly at random."""
        return sample_repair(
            self._database, self._keys, rng=self._rng, decomposition=self._decomposition
        )

    # ------------------------------------------------------------------ #
    # query handling
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_query(query: Union[Query, str]) -> Query:
        if isinstance(query, str):
            return parse_query(query)
        return query

    def diagnostics(self, query: Union[Query, str]) -> QueryDiagnostics:
        """Fragment, keywidth and complexity placement of a query."""
        parsed = self._as_query(query)
        fragment = classify(parsed)
        width = keywidth(parsed, self._keys)
        positive = is_existential_positive(parsed)
        if positive:
            try:
                ucq = to_ucq(parsed)
                disjuncts = len(ucq.disjuncts)
                per_disjunct = max_disjunct_keywidth(ucq, self._keys)
            except FragmentError:
                disjuncts = None
                per_disjunct = None
        else:
            disjuncts = None
            per_disjunct = None
        return QueryDiagnostics(
            query_class=fragment,
            keywidth=width,
            max_disjunct_keywidth=per_disjunct,
            disjuncts=disjuncts,
            admits_fpras=positive,
            lambda_level=width if positive else None,
        )

    def entails_some_repair(
        self, query: Union[Query, str], answer: Sequence[Constant] = ()
    ) -> bool:
        """The decision problem #CQA>0 for the given query/answer."""
        parsed = self._as_query(query)
        if parsed.arity:
            parsed = bind_answer(parsed, answer)
        elif answer:
            raise FragmentError("a Boolean query takes no answer tuple")
        return decide(self._database, self._keys, parsed)

    # ------------------------------------------------------------------ #
    # counting
    # ------------------------------------------------------------------ #
    def count(
        self,
        query: Union[Query, str],
        answer: Sequence[Constant] = (),
        method: str = "auto",
        epsilon: float = 0.1,
        delta: float = 0.05,
        max_samples: Optional[int] = None,
    ) -> CQAResult:
        """Count (or estimate) the repairs entailing the query.

        ``method`` is one of the exact strategies of
        :func:`repro.repairs.counting.count_repairs_satisfying` (``auto``,
        ``naive``, ``certificate``, ``inclusion-exclusion``,
        ``enumeration``) or one of the randomised ones: ``fpras`` (the
        paper's natural-sample-space scheme) and ``karp-luby`` (the
        complex-sample-space baseline).  ``epsilon``/``delta`` only apply to
        the randomised methods.

        The computation itself is :func:`count_query`, the solver-free
        kernel; the solver contributes its cached decomposition and its
        shared random generator.
        """
        return count_query(
            self._database,
            self._keys,
            self._as_query(query),
            answer=answer,
            method=method,
            epsilon=epsilon,
            delta=delta,
            max_samples=max_samples,
            rng=self._rng,
            decomposition=self._decomposition,
        )

    # ------------------------------------------------------------------ #
    # frequencies and classical CQA notions
    # ------------------------------------------------------------------ #
    def frequency(
        self,
        query: Union[Query, str],
        answer: Sequence[Constant] = (),
        method: str = "auto",
    ) -> Fraction:
        """Exact relative frequency of ``answer`` for ``query``."""
        result = self.count(query, answer, method=method)
        return result.exact_frequency

    def answer_ranking(
        self, query: Union[Query, str], method: str = "auto"
    ) -> List[AnswerFrequency]:
        """All candidate answers ranked by exact relative frequency."""
        parsed = self._as_query(query)
        return answer_frequencies(
            self._database,
            self._keys,
            parsed,
            method=method,
            decomposition=self._decomposition,
        )

    def certain_answers(self, query: Union[Query, str]) -> List[Tuple[Constant, ...]]:
        """Classical certain answers (frequency 1)."""
        return [item.answer for item in self.answer_ranking(query) if item.is_certain]

    def possible_answers(self, query: Union[Query, str]) -> List[Tuple[Constant, ...]]:
        """Possible answers (frequency > 0)."""
        return [item.answer for item in self.answer_ranking(query) if item.is_possible]
