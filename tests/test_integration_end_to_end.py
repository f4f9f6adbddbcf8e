"""End-to-end integration tests across subsystems.

Each test stitches several subsystems together the way a downstream user
would: scenario → solver → exact count → FPRAS → reductions → machine view,
checking that every route through the library tells the same story.
"""

import json

import pytest

from repro.approx import CQAFpras, KarpLubyEstimator, LambdaFPRAS
from repro.cli import main
from repro.core import CQASolver
from repro.db import (
    Database,
    Delta,
    PrimaryKeySet,
    database_from_json,
    database_to_json,
    fact,
)
from repro.engine import SolverPool
from repro.lams import CQACompactor, GuessCheckExpandTransducer
from repro.problems import count_disjoint_positive_dnf
from repro.reductions import cqa_to_disjoint_dnf, count_via_pdb, disjoint_dnf_to_cqa
from repro.repairs import count_repairs_satisfying
from repro.store import SnapshotStore
from repro.workloads import (
    election_registry,
    hr_analytics,
    random_conjunctive_query,
    sensor_fusion,
)
from tests.conftest import small_random_instance


@pytest.mark.parametrize("factory", [hr_analytics, sensor_fusion, election_registry])
def test_scenarios_exact_vs_fpras(factory):
    """On every named scenario the FPRAS tracks the exact count within ε."""
    scenario = factory()
    solver = CQASolver(scenario.database, scenario.keys, rng=1)
    for name, query in scenario.queries.items():
        if query.arity:
            continue  # Boolean queries only in this test
        exact = solver.count(query)
        estimate = solver.count(query, method="fpras", epsilon=0.15, delta=0.05)
        if exact.satisfying == 0:
            assert estimate.satisfying == 0
        else:
            relative_error = abs(estimate.satisfying - exact.satisfying) / exact.satisfying
            assert relative_error <= 0.3, f"query {name} missed badly"


def test_all_routes_agree_on_a_random_instance():
    """Exact counter, PDB route, DNF route, transducer span and Karp-Luby all agree."""
    database, keys = small_random_instance(seed=77, blocks=5, max_block=3)
    query = random_conjunctive_query({"R": 2, "S": 2}, keys, target_keywidth=2, seed=77)

    reference = count_repairs_satisfying(database, keys, query, method="naive").satisfying
    assert count_repairs_satisfying(database, keys, query).satisfying == reference
    assert count_via_pdb(database, keys, query) == reference

    dnf = cqa_to_disjoint_dnf(database, keys, query)
    assert count_disjoint_positive_dnf(dnf) == reference

    compactor = CQACompactor(query, keys)
    assert GuessCheckExpandTransducer(compactor).span(database) == reference

    if reference:
        karp_luby = KarpLubyEstimator(compactor)(database, 0.2, 0.1, rng=3)
        assert abs(karp_luby - reference) <= 0.4 * reference


def test_round_trip_through_the_theorem_5_1_reduction():
    """#CQA -> #DisjPoskDNF -> #CQA(Q_k, Σ_k) preserves the count at every hop."""
    scenario = hr_analytics(employees=10)
    query = scenario.queries["top-band-in-it"]
    reference = count_repairs_satisfying(scenario.database, scenario.keys, query).satisfying

    dnf = cqa_to_disjoint_dnf(scenario.database, scenario.keys, query)
    assert count_disjoint_positive_dnf(dnf) == reference

    back = disjoint_dnf_to_cqa(dnf)
    again = count_repairs_satisfying(back.database, back.keys, back.query).satisfying
    assert again == reference


def test_json_round_trip_preserves_counts(employee_db, employee_keys, same_department_query):
    """Serialising and reloading the database does not change any answer."""
    payload = database_to_json(employee_db, employee_keys)
    reloaded_db, reloaded_keys = database_from_json(payload)
    original = count_repairs_satisfying(employee_db, employee_keys, same_department_query)
    reloaded = count_repairs_satisfying(reloaded_db, reloaded_keys, same_department_query)
    assert (original.satisfying, original.total) == (reloaded.satisfying, reloaded.total)


def test_fpras_variants_agree_with_each_other():
    """LambdaFPRAS on the CQA compactor and the CQAFpras give consistent answers."""
    scenario = sensor_fusion(sensors=15)
    query = scenario.queries["any-critical"]
    solver = CQASolver(scenario.database, scenario.keys, rng=5)
    exact = solver.count(query).satisfying

    compactor = CQACompactor(query, scenario.keys)
    generic = LambdaFPRAS(compactor).estimate(scenario.database, 0.15, 0.05, rng=5).estimate
    specialised = CQAFpras(query, scenario.keys).estimate_count(
        scenario.database, 0.15, 0.05, rng=5
    )
    if exact == 0:
        assert generic == specialised == 0
    else:
        assert abs(generic - exact) <= 0.3 * exact
        assert abs(specialised - exact) <= 0.3 * exact


def test_numbers_and_strings_in_one_key_position(tmp_path, capsys):
    """A position holding both numbers and strings works on every path.

    ``Fact.__lt__`` cannot order ``1`` against ``'x'``; the canonical order
    ranks numbers first, so the digest, JSON, checkpoints and the batch
    CLI all handle the database.
    """
    facts = [fact("R", 1, "a"), fact("R", 1, "b"), fact("R", "x", "c")]
    keys = PrimaryKeySet.from_dict({"R": [1]})
    database = Database(facts)
    assert database.content_digest() == Database(reversed(facts)).content_digest()
    assert database.sorted_facts() == facts

    restored, restored_keys = database_from_json(database_to_json(database, keys))
    assert restored == database and restored_keys == keys

    pool = SolverPool(persist_dir=tmp_path / "store", checkpoint_every=1)
    pool.register("m", database, keys)
    pool.apply_delta("m", Delta(inserted=[fact("R", "x", 5)], deleted=[fact("R", 1, "b")]))
    middle = pool.lookup("m")[0]
    pool.apply_delta("m", Delta(inserted=[fact("R", 2.5, "d")]))
    head = pool.lookup("m")[0]
    assert head.content_digest() == Database(head.facts()).content_digest()
    record = pool.checkpoints("m")[0]
    assert record.digest == middle.content_digest()
    loaded = SnapshotStore(tmp_path / "store").load((record.digest, record.keys_digest))
    assert loaded == middle and loaded.sorted_facts() == middle.sorted_facts()

    restarted = SolverPool(persist_dir=tmp_path / "store")
    restarted.register("m", head, keys)
    assert restarted.materialise("m", middle.content_digest())[0] == middle
    assert restarted.materialise("m", database.content_digest())[0] == database

    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps({
        "databases": {"m": database_to_json(database, keys)},
        "jobs": [{"database": "m", "query": "EXISTS y. R(1, y)"}],
    }))
    assert main(["batch", "--jobs", str(jobs)]) == 0
    (result,) = json.loads(capsys.readouterr().out)["jobs"]
    assert (result["satisfying"], result["total"]) == (2, 2)
