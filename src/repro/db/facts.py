"""Facts: ground atoms stored in a database.

A fact over a schema ``S`` is an expression ``R(c1, ..., cn)`` where ``R/n``
is a relation of ``S`` and each ``ci`` is a constant.  Facts are immutable
and hashable so they can live in Python sets, which is exactly how
databases are represented (a database is a finite set of facts).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, Sequence, Tuple, Union

from ..errors import SchemaError

__all__ = ["Constant", "Fact", "canonical_order", "canonical_position", "fact"]

#: The constants the paper draws from a countably infinite set ``C``.  In the
#: library a constant is any hashable scalar; strings and integers cover all
#: practical uses and keep facts printable.
Constant = Union[str, int, float, bool]


@dataclass(frozen=True, order=True)
class Fact:
    """An immutable ground atom ``R(c1, ..., cn)``.

    Facts are ordered lexicographically by ``(relation, arguments)``; this
    total order is what the block ordering ``≺_{D,Σ}`` of the paper is built
    on (see :mod:`repro.db.blocks`).
    """

    relation: str
    arguments: Tuple[Constant, ...]

    def __post_init__(self) -> None:
        if not self.relation:
            raise SchemaError("a fact must name a non-empty relation symbol")
        if not isinstance(self.arguments, tuple):
            # Accept any iterable at construction time for ergonomic reasons,
            # but store a tuple so the fact is hashable.
            object.__setattr__(self, "arguments", tuple(self.arguments))
        if len(self.arguments) == 0:
            raise SchemaError(
                f"fact over {self.relation!r} must have at least one argument"
            )

    @property
    def arity(self) -> int:
        """Number of arguments of the fact."""
        return len(self.arguments)

    def project(self, positions: Iterable[int]) -> Tuple[Constant, ...]:
        """Return the arguments at the given 1-based ``positions``.

        This mirrors the paper's ``t[A]`` notation for the projection of a
        tuple on a set of attribute positions, used to define key
        satisfaction.
        """
        return tuple(self.arguments[position - 1] for position in positions)

    def __str__(self) -> str:
        rendered = ", ".join(str(argument) for argument in self.arguments)
        return f"{self.relation}({rendered})"


def fact(relation: str, *arguments: Constant) -> Fact:
    """Convenience constructor: ``fact("R", 1, "a")`` == ``Fact("R", (1, "a"))``."""
    return Fact(relation, tuple(arguments))


# ---------------------------------------------------------------------- #
# the canonical fact order
# ---------------------------------------------------------------------- #
#: ``Fact.__lt__`` as a C-level sort key.
_FIELDS = attrgetter("relation", "arguments")


def _ranked(item: Fact) -> Tuple[str, Tuple[tuple, ...]]:
    """A sort key that is total where ``Fact.__lt__`` is not.

    At each argument position numbers rank before strings, and strings
    before any other constant type, grouped by type name.  Two constants
    of one rank compare as ``Fact.__lt__`` compares them, and a number is
    never equal to a string, so for the :data:`Constant` types this key
    answers every comparison ``Fact.__lt__`` can make the same way.
    """
    return item.relation, tuple(
        (0, constant) if isinstance(constant, (int, float))
        else (1, constant) if isinstance(constant, str)
        else (2, type(constant).__name__, constant)
        for constant in item.arguments
    )


def canonical_order(facts: Iterable[Fact]) -> List[Fact]:
    """The facts as a list in the canonical order every digest and block uses.

    This is ``sorted(facts)`` wherever ``Fact.__lt__`` can compare the
    facts, computed with a C-level key.  When one argument position mixes
    numbers and strings, ``Fact.__lt__`` raises ``TypeError``; the order
    then falls back to :func:`_ranked`, which agrees with ``Fact.__lt__``
    on every pair it compares.  A successful ``Fact.__lt__`` sort only
    made comparisons whose answers the ranked key shares, so both sorts
    produce the same list: the canonical order *is* the ranked order.

    >>> [str(item) for item in canonical_order([fact("R", "x", "c"), fact("R", 1, "b")])]
    ['R(1, b)', 'R(x, c)']
    """
    ordered = list(facts)
    try:
        ordered.sort(key=_FIELDS)
    except TypeError:
        ordered.sort(key=_ranked)
    return ordered


def canonical_position(ordered: Sequence[Fact], item: Fact) -> int:
    """``bisect_left`` of ``item`` in a list in :func:`canonical_order`.

    The C-level key answers whenever its comparisons are defined, and then
    agrees with the ranked key; otherwise the ranked key decides.
    """
    try:
        return bisect_left(ordered, _FIELDS(item), key=_FIELDS)
    except TypeError:
        return bisect_left(ordered, _ranked(item), key=_ranked)
