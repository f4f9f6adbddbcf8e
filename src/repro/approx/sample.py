"""Algorithm 3: the ``Sample`` primitive of the Λ[k] FPRAS.

Given a compactor ``M`` with solution domains ``S1, ..., Sn`` on input
``x``, ``Sample(x)`` draws one element uniformly and independently from
each domain and returns 1 iff the drawn point belongs to the unfolding of
``M(x, c)`` for some valid certificate ``c`` — i.e. iff the point lies in
the union of boxes whose size is the function value ``f(x)``.  Therefore

    ``Pr[Sample(x) = 1] = f(x) / |U|``     with ``U = S1 × ... × Sn``

(Lemma 6.3), which is the Bernoulli probability the FPRAS of Theorem 6.2
amplifies.

The implementation works with element *indices* (one integer per domain) so
it never materialises strings, and the membership test is a scan over the
certificate selectors.  A caller with a cheaper membership oracle (e.g. the
#CQA sampler, which can evaluate the query on the sampled repair) can pass
it in explicitly.

Every uniform index draw of the estimators goes through
:func:`index_drawer`, which returns exactly what
``tuple(rng.randrange(n) for n in sizes)`` would and leaves the generator
in the same state, at about half the cost per index.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..lams.compactor import Compactor
from ..lams.selectors import Selector

__all__ = ["draw_point", "index_drawer", "point_in_union", "Sampler"]

#: A sampled point: one element index per solution domain.
Point = Tuple[int, ...]

#: CPython's ``randrange(n)`` path for a ``getrandbits``-backed generator.
_RANDBELOW = random.Random._randbelow_with_getrandbits

#: The pins of a draw over the whole product space.
_NO_PINS: Mapping[int, int] = MappingProxyType({})


def index_drawer(
    rng: random.Random, sizes: Sequence[int]
) -> Callable[..., Point]:
    """A function drawing one uniform index below each size, in order.

    ``draw()`` returns ``tuple(rng.randrange(n) for n in sizes)``.
    ``draw(pins)`` returns a uniform point of the box that ``pins`` (a
    mapping from position to value) cuts out: a pinned position takes its
    value and draws nothing, the others draw in position order.  Either
    way the generator is consumed exactly as those ``randrange`` calls
    would, call for call.

    For a generator whose ``randrange`` is CPython's, backed by
    ``getrandbits``, the drawer replays its rejection loop (draw
    ``n.bit_length()`` bits until the value is below ``n``) directly,
    with the bit lengths computed here once.  Any other generator, or a
    size below 1 (which ``randrange`` rejects), keeps calling
    ``randrange``.
    """
    sizes = tuple(sizes)
    cls = type(rng)
    if (
        getattr(cls, "randrange", None) is not random.Random.randrange
        or getattr(cls, "_randbelow", None) is not _RANDBELOW
        or any(size < 1 for size in sizes)
    ):
        randrange = rng.randrange

        def draw_by_randrange(pins: Mapping[int, int] = _NO_PINS) -> Point:
            return tuple(
                [
                    pins[index] if index in pins else randrange(size)
                    for index, size in enumerate(sizes)
                ]
            )

        return draw_by_randrange
    getrandbits = rng.getrandbits
    widths = tuple((size, size.bit_length()) for size in sizes)

    # A first draw below the size is kept; only a rejected one pays for
    # the call into the rest of the loop.  The unpinned case, the FPRAS's
    # every sample, skips the per-position pin test.
    def draw(pins: Mapping[int, int] = _NO_PINS) -> Point:
        if not pins:
            return tuple(
                [
                    value
                    if (value := getrandbits(bits)) < size
                    else _redraw(getrandbits, size, bits)
                    for size, bits in widths
                ]
            )
        return tuple(
            [
                pins[index]
                if index in pins
                else (
                    value
                    if (value := getrandbits(bits)) < size
                    else _redraw(getrandbits, size, bits)
                )
                for index, (size, bits) in enumerate(widths)
            ]
        )

    return draw


def _redraw(getrandbits: Callable[[int], int], size: int, bits: int) -> int:
    """The rest of ``randrange(size)``'s rejection loop after one rejected draw."""
    value = getrandbits(bits)
    while value >= size:
        value = getrandbits(bits)
    return value


def draw_point(domain_sizes: Sequence[int], rng: random.Random) -> Point:
    """Draw one element index uniformly from each domain (the ``choose`` step)."""
    return index_drawer(rng, domain_sizes)()


def point_in_union(point: Sequence[int], selectors: Sequence[Selector]) -> bool:
    """True iff the point lies in the box of at least one selector."""
    for selector in selectors:
        if all(point[index] == element for index, element in selector.pins):
            return True
    return False


class Sampler:
    """The ``Sample`` routine bound to a compactor and an input instance.

    Parameters
    ----------
    compactor:
        The compactor defining the function to approximate.
    instance:
        The input ``x``.
    rng:
        Random generator (or integer seed) for reproducibility.
    membership:
        Optional override for the membership test.  It receives the sampled
        point (element indices) and must return True iff the point lies in
        the union of boxes.  By default the certificate selectors are
        materialised once and scanned per sample.
    """

    def __init__(
        self,
        compactor: Compactor,
        instance,
        rng: Optional[random.Random | int] = None,
        membership: Optional[Callable[[Point], bool]] = None,
    ) -> None:
        self._compactor = compactor
        self._instance = instance
        if isinstance(rng, int):
            rng = random.Random(rng)
        self._rng = rng if rng is not None else random.Random()
        self._domain_sizes = compactor.domain_sizes(instance)
        self._draw = index_drawer(self._rng, self._domain_sizes)
        if membership is None:
            selectors = compactor.selectors(instance)
            membership = lambda point: point_in_union(point, selectors)  # noqa: E731
        self._membership = membership

    @property
    def domain_sizes(self) -> Tuple[int, ...]:
        """Sizes of the solution domains of the bound instance."""
        return tuple(self._domain_sizes)

    @property
    def sample_space_size(self) -> int:
        """``|U| = Π_i |S_i|``."""
        size = 1
        for domain_size in self._domain_sizes:
            size *= domain_size
        return size

    def sample_point(self) -> Point:
        """Draw a uniform point of ``U`` (exposed for the #CQA sampler and tests)."""
        return self._draw()

    def sample(self) -> int:
        """One run of Algorithm 3: returns 1 or 0."""
        return 1 if self._membership(self.sample_point()) else 0

    def sample_many(self, count: int) -> int:
        """Number of successes over ``count`` independent runs."""
        return sum(self.sample() for _ in range(count))
