"""Unit tests for FO evaluation and homomorphism search."""

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database, Delta, Fact, PrimaryKeySet, fact
from repro.engine import CountJob, SolverPool
from repro.errors import EvaluationError
from repro.query import (
    answers,
    atom,
    count_homomorphisms,
    exists_homomorphism,
    find_homomorphisms,
    holds,
    homomorphism_image,
    parse_query,
    var,
)
from repro.query import homomorphism


@pytest.fixture
def path_db():
    """A small directed graph stored as edge facts."""
    return Database(
        [
            fact("E", "a", "b"),
            fact("E", "b", "c"),
            fact("E", "c", "a"),
            fact("E", "a", "a"),
            fact("N", "a"),
            fact("N", "b"),
            fact("N", "c"),
        ]
    )


class TestEvaluation:
    def test_atoms_and_connectives(self, path_db):
        assert holds(parse_query("E('a', 'b')", auto_close=False), path_db)
        assert not holds(parse_query("E('b', 'a')", auto_close=False), path_db)
        assert holds(parse_query("E('a', 'b') AND E('b', 'c')"), path_db)
        assert holds(parse_query("E('b', 'a') OR E('a', 'b')"), path_db)
        assert holds(parse_query("NOT E('b', 'a')"), path_db)

    def test_existential_queries(self, path_db):
        assert holds(parse_query("EXISTS x . E(x, x)"), path_db)
        assert holds(parse_query("EXISTS x, y, z . E(x, y) AND E(y, z) AND E(z, x)"), path_db)
        assert not holds(parse_query("EXISTS x . E(x, 'd')"), path_db)

    def test_universal_queries(self, path_db):
        # Every node has an outgoing edge.
        q = parse_query("FORALL x . NOT N(x) OR EXISTS y . E(x, y)", auto_close=False)
        assert holds(q, path_db)
        # Not every node has a self loop.
        q2 = parse_query("FORALL x . NOT N(x) OR E(x, x)", auto_close=False)
        assert not holds(q2, path_db)

    def test_equality_and_constants(self, path_db):
        assert holds(parse_query("EXISTS x . E(x, x) AND x = 'a'"), path_db)
        assert not holds(parse_query("EXISTS x . E(x, x) AND x = 'b'"), path_db)

    def test_non_boolean_answers(self, path_db):
        query = parse_query("E('a', x)", answer_variables=["x"])
        assert answers(query, path_db) == {("b",), ("a",)}
        assert holds(query, path_db, ("b",))
        assert not holds(query, path_db, ("c",))

    def test_wrong_answer_arity(self, path_db):
        query = parse_query("E('a', x)", answer_variables=["x"])
        with pytest.raises(EvaluationError):
            holds(query, path_db, ("b", "c"))

    def test_true_false(self, path_db):
        assert holds(parse_query("TRUE"), path_db)
        assert not holds(parse_query("FALSE"), path_db)


class TestHomomorphisms:
    def test_all_homomorphisms_are_found(self, path_db):
        x, y = var("x"), var("y")
        atoms = [atom("E", x, y)]
        found = list(find_homomorphisms(atoms, path_db))
        assert len(found) == 4
        assert count_homomorphisms(atoms, path_db) == 4

    def test_join_and_repeated_variables(self, path_db):
        x, y, z = var("x"), var("y"), var("z")
        triangle = [atom("E", x, y), atom("E", y, z), atom("E", z, x)]
        found = list(find_homomorphisms(triangle, path_db))
        assert len(found) >= 1
        for assignment in found:
            image = homomorphism_image(triangle, assignment)
            assert all(item in path_db for item in image)
        loop = [atom("E", x, x)]
        assert count_homomorphisms(loop, path_db) == 1

    def test_base_assignment_restricts_search(self, path_db):
        x, y = var("x"), var("y")
        found = list(find_homomorphisms([atom("E", x, y)], path_db, base_assignment={x: "a"}))
        assert {assignment[y] for assignment in found} == {"a", "b"}

    def test_limit_and_exists(self, path_db):
        x, y = var("x"), var("y")
        atoms = [atom("E", x, y)]
        assert len(list(find_homomorphisms(atoms, path_db, limit=2))) == 2
        assert exists_homomorphism(atoms, path_db)
        assert not exists_homomorphism([atom("Missing", x)], path_db)

    def test_empty_atom_list_yields_empty_homomorphism(self, path_db):
        assert list(find_homomorphisms([], path_db)) == [{}]

    def test_a_search_leaves_no_garbage_cycle(self, path_db):
        """Everything a search allocates, the database it reads included,
        is freed by reference counting, not by the cyclic collector."""
        x, y, z = var("x"), var("y"), var("z")
        triangle = [atom("E", x, y), atom("E", y, z), atom("E", z, x)]
        gc.collect()
        gc.disable()
        try:
            for limit in (None, 1):
                assert len(list(find_homomorphisms(triangle, path_db, limit=limit))) >= 1
            assert exists_homomorphism(triangle, path_db)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _scanning_candidates(atom_, database, assignment):
    """The candidate lookup before the position maps: a scan of the relation."""
    return [
        item
        for item in database.relation(atom_.relation)
        if homomorphism._matches(atom_, item, assignment)
    ]


def _scanning(call):
    """Run ``call()`` with the search's candidate lookup scanning relations."""
    indexed = homomorphism._candidates
    homomorphism._candidates = _scanning_candidates
    try:
        return call()
    finally:
        homomorphism._candidates = indexed


_ARITIES = {"R": 2, "S": 3, "T": 1}
_VARIABLES = [var("x"), var("y"), var("z")]
#: Database constants mix ints and strings in every column.
_STORED = st.sampled_from([0, 1, "0", "1", "a"])
#: Query constants are stored ones half the time; otherwise an absent one,
#: or one equal to a stored int under another type (``1.0``, ``True``).
_ASKED = st.one_of(_STORED, st.sampled_from(["b", 1.0, True]))
#: The constants of other types that equal a stored one.
_TWINS = {0: [0.0, False], 1: [1.0, True]}


@st.composite
def _search_instances(draw):
    facts = draw(
        st.lists(
            st.sampled_from(sorted(_ARITIES)).flatmap(
                lambda name: st.tuples(
                    st.just(name), st.tuples(*[_STORED] * _ARITIES[name])
                )
            ),
            min_size=4,
            max_size=30,
        )
    )
    database = Database([Fact(name, arguments) for name, arguments in facts])
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # Shaped on a stored fact, so that the atom has matches: each
            # argument stays, becomes a variable or becomes an equal twin.
            name, arguments = draw(st.sampled_from(facts))
            terms = [
                draw(st.sampled_from(_VARIABLES + [value] + _TWINS.get(value, [])))
                for value in arguments
            ]
        else:
            # Mostly known relations at their arity; sometimes an arity the
            # relation does not have, or no relation.
            name = draw(st.sampled_from(["R", "R", "S", "S", "T", "U"]))
            arity = _ARITIES.get(name, 2) + draw(st.sampled_from([0, 0, 0, 0, 1]))
            terms = draw(
                st.lists(st.one_of(st.sampled_from(_VARIABLES), _ASKED),
                         min_size=arity, max_size=arity)
            )
        atoms.append(atom(name, *terms))
    base = draw(st.dictionaries(st.sampled_from(_VARIABLES), _ASKED, max_size=2))
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    return database, atoms, base, limit


class TestIndexedSearch:
    @given(_search_instances())
    @settings(max_examples=300, deadline=None)
    def test_indexed_search_yields_what_scanning_yields(self, instance):
        database, atoms, base, limit = instance
        for search in (
            lambda: list(find_homomorphisms(atoms, database, base, limit)),
            lambda: exists_homomorphism(atoms, database, base),
            lambda: count_homomorphisms(atoms, database, base),
        ):
            assert search() == _scanning(search)

    def test_position_maps_follow_mutation_and_are_not_pickled(self):
        database = Database([fact("R", 1, "a"), fact("R", 2, "a")])
        untouched = pickle.dumps(database)
        assert set(database.facts_with("R", 1, "a")) == {fact("R", 1, "a"), fact("R", 2, "a")}
        assert database.facts_with("R", 0, 1.0) == (fact("R", 1, "a"),)
        assert database.facts_with("R", 0, "1") == ()
        assert database.facts_with("R", 2, "a") == ()  # beyond the arity
        assert pickle.dumps(database) == untouched
        restored = pickle.loads(pickle.dumps(database))
        assert restored.facts_with("R", 0, 2) == (fact("R", 2, "a"),)

        database.add(fact("R", 3, "a"))
        assert len(database.facts_with("R", 1, "a")) == 3
        database.discard(fact("R", 1, "a"))
        assert set(database.facts_with("R", 1, "a")) == {fact("R", 2, "a"), fact("R", 3, "a")}

        snapshot = database.freeze()
        assert snapshot.facts_with("R", 0, 3) == (fact("R", 3, "a"),)
        derived = snapshot.apply_delta(
            Delta(inserted=[fact("R", 4, "a")], deleted=[fact("R", 3, "a")])
        )
        assert set(derived.facts_with("R", 1, "a")) == {fact("R", 2, "a"), fact("R", 4, "a")}
        assert derived.facts_with("R", 0, 3) == ()
        assert snapshot.facts_with("R", 0, 3) == (fact("R", 3, "a"),)

    def test_a_cold_anchored_join_examines_only_matching_facts(self, monkeypatch):
        """A cold two-atom job with one constant per atom checks the facts
        its constants select, not the 2,400 facts of the relations."""
        facts = [fact("R", i, tag, i % 7) for i in range(600) for tag in ("a", "b")]
        facts += [fact("S", i, tag, i % 5) for i in range(600) for tag in ("c", "d")]
        facts += [fact("R", i, "hot", i) for i in (3, 4)]
        facts += [fact("S", i, "warm", i) for i in (5, 6, 7)]
        pool = SolverPool()
        pool.register(
            "wide", Database(facts), PrimaryKeySet.from_dict({"R": [1], "S": [1]})
        )
        examined = []
        real_matches = homomorphism._matches

        def counting_matches(atom_, item, assignment):
            examined.append(item)
            return real_matches(atom_, item, assignment)

        monkeypatch.setattr(homomorphism, "_matches", counting_matches)
        result = pool.run_job(
            CountJob(
                database="wide",
                query="EXISTS x, y, z, w. (R(x, 'hot', y) AND S(z, 'warm', w))",
            )
        )
        assert len(examined) <= 36
        cold = 2 ** 1200
        assert result.total == cold // 2 ** 5 * 3 ** 5
        assert result.satisfying == result.total - cold // 2 ** 5 * (
            2 ** 2 * 3 ** 3 + 3 ** 2 * 2 ** 3 - 2 ** 5
        )
