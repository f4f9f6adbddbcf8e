"""Homomorphism search for conjunctive query bodies.

A homomorphism from a set of atoms to a database is a mapping of the atoms'
variables to constants such that every atom is mapped to a fact of the
database.  Homomorphisms are the *small certificates* of the paper's
guess–check–expand paradigm: a repair entails a UCQ iff some disjunct has a
homomorphic image inside the repair (and, for the decision procedure of
Lemma 3.5, inside the database with a consistent image).

The search is classic backtracking with two standard database heuristics:

* atoms are matched most-constrained-first (fewest candidate facts given the
  current partial assignment), and
* candidate facts for an atom are looked up by the constants/bound variables
  the atom already fixes: :meth:`~repro.db.database.Database.facts_with`
  gives the facts with a given constant at a given argument position, and
  the smallest such bucket is checked.  A lookup therefore costs the facts
  it returns, not the size of the relation.
"""

from __future__ import annotations

from itertools import islice
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Set

from ..db.database import Database
from ..db.facts import Constant, Fact, canonical_order
from .ast import Atom, Variable
from .evaluation import Assignment

__all__ = [
    "find_homomorphisms",
    "count_homomorphisms",
    "exists_homomorphism",
    "homomorphism_image",
]


def homomorphism_image(atoms: Sequence[Atom], assignment: Assignment) -> Set[Fact]:
    """The image ``h(Q')``: the set of facts the atoms are mapped to."""
    image: Set[Fact] = set()
    for atom in atoms:
        arguments: List[Constant] = []
        for term in atom.terms:
            if isinstance(term, Variable):
                arguments.append(assignment[term])
            else:
                arguments.append(term)
        image.add(Fact(atom.relation, tuple(arguments)))
    return image


def _candidates(
    atom: Atom, database: Database, assignment: Assignment
) -> List[Fact]:
    """Facts of the database that ``atom`` could map to under ``assignment``.

    The facts checked are the smallest bucket among the positions that a
    constant or an already-bound variable of ``atom`` fixes, or the whole
    relation when no position is fixed.  :func:`_matches` re-checks every
    position, so a bucket only narrows what is checked, never the answer.
    """
    pool: Optional[Collection[Fact]] = None
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            term = assignment.get(term)
            if term is None:
                continue
        bucket = database.facts_with(atom.relation, position, term)
        if not bucket:
            return []
        if pool is None or len(bucket) < len(pool):
            pool = bucket
    if pool is None:
        pool = database.relation(atom.relation)
    return [fact_ for fact_ in pool if _matches(atom, fact_, assignment)]


def _matches(atom: Atom, fact_: Fact, assignment: Assignment) -> bool:
    """True iff ``fact_`` is compatible with ``atom`` under ``assignment``.

    Repeated variables within the atom must map to equal constants even if
    the variable is not yet bound globally.
    """
    if len(atom.terms) != len(fact_.arguments):
        return False
    local: Dict[Variable, Constant] = {}
    for term, argument in zip(atom.terms, fact_.arguments):
        if isinstance(term, Variable):
            bound = assignment.get(term, local.get(term))
            if bound is None:
                local[term] = argument
            elif bound != argument:
                return False
        elif term != argument:
            return False
    return True


def _extend(atom: Atom, fact_: Fact, assignment: Assignment) -> Assignment:
    """Return ``assignment`` extended with the bindings forced by ``atom -> fact_``."""
    extended = dict(assignment)
    for term, argument in zip(atom.terms, fact_.arguments):
        if isinstance(term, Variable):
            extended[term] = argument
    return extended


def find_homomorphisms(
    atoms: Sequence[Atom],
    database: Database,
    base_assignment: Optional[Assignment] = None,
    limit: Optional[int] = None,
) -> Iterator[Assignment]:
    """Yield homomorphisms from ``atoms`` into ``database``.

    Parameters
    ----------
    atoms:
        The conjunctive query body (order irrelevant).
    database:
        The database to map into.
    base_assignment:
        A partial assignment that every returned homomorphism must extend
        (used when outer variables are already bound).
    limit:
        Stop after yielding this many homomorphisms (``None`` = all).

    Yields
    ------
    dict
        Complete assignments covering every variable of ``atoms`` plus the
        keys of ``base_assignment``.

    The chosen atom's candidate facts are tried in canonical order, so the
    sequence of homomorphisms is deterministic:

    >>> from repro.db import Database, fact
    >>> from repro.query import atom, var
    >>> x, y = var("x"), var("y")
    >>> db = Database([fact("E", "a", "b"), fact("E", "b", "c"), fact("E", "b", "a")])
    >>> path = [atom("E", "a", x), atom("E", x, y)]
    >>> [(h[x], h[y]) for h in find_homomorphisms(path, db)]
    [('b', 'a'), ('b', 'c')]
    """
    base = dict(base_assignment or {})
    if not atoms:
        yield base
        return
    yield from islice(_backtrack(list(atoms), database, base), limit)


def _backtrack(
    remaining: List[Atom], database: Database, assignment: Assignment
) -> Iterator[Assignment]:
    """Every extension of ``assignment`` mapping ``remaining`` into ``database``.

    A module-level generator rather than a closure over its own name, so a
    search leaves no reference cycle (and no database held by one) behind.
    """
    if not remaining:
        yield dict(assignment)
        return
    # Most-constrained-atom-first: pick the atom with the fewest
    # candidates (the first such atom on a tie).
    chosen_index, candidates = 0, []
    for index, atom in enumerate(remaining):
        matching = _candidates(atom, database, assignment)
        if not matching:
            return
        if index == 0 or len(matching) < len(candidates):
            chosen_index, candidates = index, matching
    chosen = remaining[chosen_index]
    rest = remaining[:chosen_index] + remaining[chosen_index + 1 :]
    for fact_ in canonical_order(candidates):
        yield from _backtrack(rest, database, _extend(chosen, fact_, assignment))


def exists_homomorphism(
    atoms: Sequence[Atom],
    database: Database,
    base_assignment: Optional[Assignment] = None,
) -> bool:
    """True iff at least one homomorphism exists."""
    for _ in find_homomorphisms(atoms, database, base_assignment, limit=1):
        return True
    return False


def count_homomorphisms(
    atoms: Sequence[Atom],
    database: Database,
    base_assignment: Optional[Assignment] = None,
) -> int:
    """Number of distinct homomorphisms (distinct variable assignments)."""
    return sum(1 for _ in find_homomorphisms(atoms, database, base_assignment))
