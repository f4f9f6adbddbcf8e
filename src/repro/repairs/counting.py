"""Exact algorithms for #CQA: counting the repairs that entail a query.

Three exact strategies are provided, mirroring the complexity analysis of
the paper:

``naive``
    Enumerate every repair and evaluate the query on each.  Works for any
    first-order query (this is the only exact option for full FO, whose
    counting problem is #P-complete under parsimonious reductions,
    Theorem 3.3), but its cost is the total number of repairs —
    exponential in the number of conflicting blocks.

``certificate`` (a.k.a. union-of-boxes)
    Only for existential positive queries.  Compute the valid certificates
    ``(Q', h)``, convert each to a box over the block decomposition, and
    count the union of boxes exactly with the decomposed engine of
    :mod:`repro.lams.union_of_boxes`.  The cost is driven by the number of
    certificates and the size of the blocks they touch, not by the total
    number of repairs; for queries of bounded keywidth on realistic
    databases this is exponentially faster than ``naive``.

``inclusion-exclusion`` / ``enumeration``
    The two base strategies of the union-of-boxes engine, exposed for
    benchmarking the ablation (E3); ``certificate`` chooses between them
    per connected component automatically.

The front door is :func:`count_repairs_satisfying`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from ..db.blocks import BlockDecomposition
from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.facts import Constant
from ..errors import FragmentError
from ..query.ast import Query
from ..query.classify import is_existential_positive
from ..query.evaluation import holds
from ..query.rewriting import UCQ, to_ucq
from ..query.substitution import bind_answer
from ..lams.selectors import Selector
from ..lams.union_of_boxes import count_union_of_boxes
from .certificates import certificate_selectors, iter_certificates
from .enumeration import count_total_repairs, enumerate_repairs

__all__ = [
    "CountReport",
    "PreparedCertificates",
    "prepare_certificates",
    "count_from_selectors",
    "count_repairs_satisfying",
    "count_repairs_satisfying_naive",
    "count_repairs_satisfying_certificates",
    "bind_answer",
]

#: Methods accepted by :func:`count_repairs_satisfying`.
_EXACT_METHODS = ("auto", "naive", "certificate", "inclusion-exclusion", "enumeration")


@dataclass(frozen=True)
class CountReport:
    """The result of an exact #CQA computation, with provenance.

    Attributes
    ----------
    satisfying:
        Number of repairs entailing the query (the value of #CQA).
    total:
        Total number of repairs ``|rep(D, Σ)|``.
    method:
        The strategy that produced the count.
    certificates:
        Number of valid certificates found (``None`` for the naive method,
        which does not compute them).
    blocks:
        Number of blocks in the decomposition.
    """

    satisfying: int
    total: int
    method: str
    certificates: Optional[int]
    blocks: int

    @property
    def relative_frequency(self) -> float:
        """The relative frequency of the answer: satisfying / total."""
        if self.total == 0:
            return 0.0
        return self.satisfying / self.total


def _prepare_boolean_query(
    query: Union[Query, UCQ], answer: Sequence[Constant]
) -> Union[Query, UCQ]:
    """Bind the answer tuple (if any) and return a Boolean query/UCQ."""
    if isinstance(query, UCQ):
        if answer:
            raise FragmentError(
                "binding an answer tuple to an already-rewritten UCQ is not "
                "supported; bind the Query first, then rewrite"
            )
        return query
    if query.arity:
        return bind_answer(query, answer)
    if answer:
        raise FragmentError("a Boolean query takes no answer tuple")
    return query


def count_repairs_satisfying_naive(
    database: Database,
    keys: PrimaryKeySet,
    query: Query,
    answer: Sequence[Constant] = (),
    decomposition: Optional[BlockDecomposition] = None,
) -> int:
    """Exact #CQA by enumerating repairs; correct for any FO query."""
    bound = _prepare_boolean_query(query, answer)
    if isinstance(bound, UCQ):
        raise FragmentError("the naive counter expects a Query, not a UCQ")
    if decomposition is None:
        decomposition = BlockDecomposition(database, keys)
    count = 0
    for repair in enumerate_repairs(database, keys, decomposition=decomposition):
        if holds(bound, repair):
            count += 1
    return count


@dataclass(frozen=True)
class PreparedCertificates:
    """The query-dependent, repair-independent half of a certificate count.

    Computing an exact certificate-based count factors into two stages: a
    *preparation* stage (rewrite the bound query to a UCQ, enumerate its
    valid certificates and convert them to selectors over the block
    decomposition) and a pure *counting kernel* over ``(block sizes,
    selectors)``.  The preparation depends only on ``(D, Σ, Q, answer)`` and
    is therefore cacheable and shareable across repeated counts — the batch
    engine (:mod:`repro.engine`) memoises exactly this object.  It is
    immutable and picklable, so it can also be shipped to worker processes.

    Attributes
    ----------
    ucq:
        The Boolean UCQ rewriting of the (answer-bound) query.
    selectors:
        The certificate selectors over the block decomposition.
    certificate_count:
        The number of valid certificates found.
    """

    ucq: UCQ
    selectors: Tuple[Selector, ...]
    certificate_count: int


def prepare_certificates(
    database: Database,
    keys: PrimaryKeySet,
    query: Union[Query, UCQ],
    answer: Sequence[Constant] = (),
    decomposition: Optional[BlockDecomposition] = None,
) -> PreparedCertificates:
    """Compute the cacheable certificate/selector state for ``(D, Σ, Q, ā)``.

    Only valid for existential positive queries (the certificate machinery
    is what makes the fragment tractable); raises :class:`FragmentError`
    otherwise.
    """
    bound = _prepare_boolean_query(query, answer)
    if isinstance(bound, Query):
        if not is_existential_positive(bound):
            raise FragmentError(
                "the certificate-based counter requires an existential "
                "positive query; use method='naive' for arbitrary FO queries"
            )
        ucq = to_ucq(bound)
    else:
        ucq = bound
    if decomposition is None:
        decomposition = BlockDecomposition(database, keys)
    certificates = list(iter_certificates(database, keys, ucq))
    selectors = tuple(certificate_selectors(certificates, decomposition, keys))
    return PreparedCertificates(ucq, selectors, len(certificates))


def count_from_selectors(
    block_sizes: Sequence[int],
    selectors: Sequence[Selector],
    box_method: str = "decomposed",
    total: Optional[int] = None,
) -> int:
    """The pure counting kernel: |⋃ boxes| over the block decomposition.

    Takes only primitive, picklable data (sizes and selectors), so worker
    processes can run it without a database, a solver or a query in scope.
    ``total`` is ``Π block_sizes`` when the caller already has it.
    """
    return count_union_of_boxes(block_sizes, selectors, method=box_method, total=total)


def count_repairs_satisfying_certificates(
    database: Database,
    keys: PrimaryKeySet,
    query: Union[Query, UCQ],
    answer: Sequence[Constant] = (),
    decomposition: Optional[BlockDecomposition] = None,
    box_method: str = "decomposed",
    prepared: Optional[PreparedCertificates] = None,
) -> Tuple[int, int]:
    """Exact #CQA via certificates and union-of-boxes counting.

    Returns the pair ``(satisfying, number_of_certificates)``.  Only valid
    for existential positive queries.  ``prepared`` short-circuits the
    certificate/selector computation with a cached
    :class:`PreparedCertificates`.
    """
    if decomposition is None:
        decomposition = BlockDecomposition(database, keys)
    if prepared is None:
        prepared = prepare_certificates(
            database, keys, query, answer, decomposition=decomposition
        )
    if prepared.certificate_count == 0:
        return 0, 0
    satisfying = count_from_selectors(
        decomposition.block_sizes(),
        prepared.selectors,
        box_method,
        decomposition.total_repairs(),
    )
    return satisfying, prepared.certificate_count


def count_repairs_satisfying(
    database: Database,
    keys: PrimaryKeySet,
    query: Union[Query, UCQ],
    answer: Sequence[Constant] = (),
    method: str = "auto",
    decomposition: Optional[BlockDecomposition] = None,
    prepared: Optional[PreparedCertificates] = None,
) -> CountReport:
    """Exact #CQA with method selection; the module's front door.

    Parameters
    ----------
    database, keys:
        The inconsistent database ``D`` and the primary keys ``Σ``.
    query:
        A first-order query (or pre-rewritten UCQ).
    answer:
        Candidate answer tuple for non-Boolean queries; empty for Boolean.
    method:
        ``"auto"`` (default) picks the certificate counter for ∃FO+ queries
        and falls back to ``"naive"`` otherwise.  The remaining values force
        a specific strategy: ``"naive"``, ``"certificate"``,
        ``"inclusion-exclusion"``, ``"enumeration"``.
    decomposition:
        An existing block decomposition to reuse (optional).
    prepared:
        Cached :class:`PreparedCertificates` to reuse (certificate-family
        methods only; the naive counter ignores it).
    """
    if method not in _EXACT_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {_EXACT_METHODS}"
        )
    if decomposition is None:
        decomposition = BlockDecomposition(database, keys)
    total = count_total_repairs(database, keys, decomposition=decomposition)

    is_positive = isinstance(query, UCQ) or is_existential_positive(
        _prepare_boolean_query(query, answer) if not isinstance(query, UCQ) else query
    )

    if method == "naive" or (method == "auto" and not is_positive):
        if isinstance(query, UCQ):
            raise FragmentError("the naive counter expects a Query, not a UCQ")
        satisfying = count_repairs_satisfying_naive(
            database, keys, query, answer, decomposition=decomposition
        )
        return CountReport(satisfying, total, "naive", None, len(decomposition))

    box_method = {
        "auto": "decomposed",
        "certificate": "decomposed",
        "inclusion-exclusion": "inclusion-exclusion",
        "enumeration": "enumeration",
    }[method]
    satisfying, certificate_count = count_repairs_satisfying_certificates(
        database,
        keys,
        query,
        answer,
        decomposition=decomposition,
        box_method=box_method,
        prepared=prepared,
    )
    label = "certificate" if method == "auto" else method
    return CountReport(satisfying, total, label, certificate_count, len(decomposition))
