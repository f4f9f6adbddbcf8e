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
* candidate facts for an atom are pre-filtered by relation and by the
  constants/bound variables the atom already fixes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
    """Facts of the database that ``atom`` could map to under ``assignment``."""
    matching: List[Fact] = []
    for fact_ in database.relation(atom.relation):
        if _matches(atom, fact_, assignment):
            matching.append(fact_)
    return matching


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
    """
    base = dict(base_assignment or {})
    if not atoms:
        yield base
        return

    produced = 0

    def backtrack(remaining: List[Atom], assignment: Assignment) -> Iterator[Assignment]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if not remaining:
            produced += 1
            yield dict(assignment)
            return
        # Most-constrained-atom-first: pick the atom with the fewest candidates.
        scored = [
            (len(_candidates(atom, database, assignment)), index)
            for index, atom in enumerate(remaining)
        ]
        count, chosen_index = min(scored)
        if count == 0:
            return
        chosen = remaining[chosen_index]
        rest = remaining[:chosen_index] + remaining[chosen_index + 1 :]
        for fact_ in canonical_order(_candidates(chosen, database, assignment)):
            yield from backtrack(rest, _extend(chosen, fact_, assignment))
            if limit is not None and produced >= limit:
                return

    yield from backtrack(list(atoms), base)


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
