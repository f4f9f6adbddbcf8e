"""Tests for the uniform index draws every estimator shares.

What is pinned here:

* :func:`repro.approx.sample.index_drawer` returns exactly what
  ``random.Random.randrange`` would, call for call, and leaves the
  generator in the same state — for sizes around every power-of-two edge
  and for a ~900-bit size like a large repair total;
* a pinned position takes its value and draws nothing;
* a generator whose ``randrange`` is not CPython's ``getrandbits``-backed
  one keeps calling ``randrange``, and a size below 1 still raises;
* an FPRAS over a query with no certificate returns the same record as
  before it stopped drawing, through ``estimate`` and through the anytime
  driver, and leaves the generator untouched.
"""

import random

import pytest

from repro.approx import CQAFpras, CQAFprasResult, run_plan
from repro.approx.sample import draw_point, index_drawer
from repro.core import CQASolver
from repro.query import parse_query

_SIZES = (1, 2, 3, 4, 5, 2**31, 2**32, 2**32 + 1, 3**567)

_NO_EMPLOYEE_3 = "EXISTS x, y . Employee(3, x, y)"


class TestIndexDrawer:
    def test_large_size_is_about_900_bits(self):
        assert 890 <= (3**567).bit_length() <= 910

    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("seed", range(6))
    def test_each_size_matches_randrange_call_for_call(self, size, seed):
        reference, generator = random.Random(seed), random.Random(seed)
        draw = index_drawer(generator, (size,))
        for _ in range(200):
            assert draw() == (reference.randrange(size),)
            assert generator.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_sizes_match_randrange(self, seed):
        sizes = random.Random(seed).choices(_SIZES, k=1 + seed % 7)
        reference, generator = random.Random(seed), random.Random(seed)
        draw = index_drawer(generator, sizes)
        for _ in range(100):
            assert draw() == tuple(reference.randrange(size) for size in sizes)
        assert generator.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", range(20))
    def test_pinned_positions_draw_nothing(self, seed):
        picker = random.Random(seed)
        sizes = picker.choices(_SIZES, k=6)
        reference, generator = random.Random(seed), random.Random(seed)
        draw = index_drawer(generator, sizes)
        for _ in range(100):
            pins = {
                index: picker.randrange(size)
                for index, size in enumerate(sizes)
                if picker.random() < 0.4
            }
            expected = tuple(
                pins[index] if index in pins else reference.randrange(size)
                for index, size in enumerate(sizes)
            )
            assert draw(pins) == expected
        assert generator.getstate() == reference.getstate()

    def test_draw_point_matches_randrange(self):
        reference, generator = random.Random(4), random.Random(4)
        sizes = (3, 1, 2**40, 7)
        for _ in range(50):
            assert draw_point(sizes, generator) == tuple(
                reference.randrange(size) for size in sizes
            )
        assert generator.getstate() == reference.getstate()

    def test_other_generators_keep_calling_randrange(self):
        class Counting(random.Random):
            calls = 0

            def randrange(self, *args):
                Counting.calls += 1
                return super().randrange(*args)

        class NoBits(random.Random):
            # Overriding random() alone makes CPython pick the
            # randrange path that does not use getrandbits.
            def random(self):
                return super().random()

        assert NoBits._randbelow is not random.Random._randbelow
        draw = index_drawer(Counting(1), (5, 6))
        draw()
        assert Counting.calls == 2
        reference, generator = NoBits(3), NoBits(3)
        draw = index_drawer(generator, (5, 2**33))
        for _ in range(50):
            assert draw() == (reference.randrange(5), reference.randrange(2**33))

    def test_a_size_below_one_still_raises(self):
        draw = index_drawer(random.Random(0), (3, 0))
        with pytest.raises(ValueError):
            draw()


class TestEmptyUnion:
    #: The record the FPRAS returned while it still drew every sample.
    EXPECTED = CQAFprasResult(
        estimate=0.0,
        frequency_estimate=0.0,
        total_repairs=4,
        samples=1550,
        requested_samples=1550,
        successes=0,
        epsilon=0.1,
        delta=0.05,
        keywidth=1,
        max_block_size=2,
        capped=False,
    )

    def test_estimate_record_is_unchanged_and_draws_nothing(
        self, employee_db, employee_keys
    ):
        generator = random.Random(11)
        before = generator.getstate()
        scheme = CQAFpras(parse_query(_NO_EMPLOYEE_3), employee_keys)
        result = scheme.estimate(employee_db, 0.1, 0.05, rng=generator)
        assert result == self.EXPECTED
        assert generator.getstate() == before

    def test_anytime_run_to_budget_is_unchanged(self, employee_db, employee_keys):
        generator = random.Random(11)
        before = generator.getstate()
        scheme = CQAFpras(parse_query(_NO_EMPLOYEE_3), employee_keys)
        anytime = run_plan(scheme.plan(employee_db, 0.1, 0.05, rng=generator))
        assert anytime.stop_reason == "budget"
        assert anytime.result == self.EXPECTED
        assert anytime.estimate == 0.0
        assert generator.getstate() == before

    def test_evaluate_membership_still_draws_and_agrees(
        self, employee_db, employee_keys
    ):
        generator = random.Random(11)
        before = generator.getstate()
        scheme = CQAFpras(
            parse_query(_NO_EMPLOYEE_3), employee_keys, membership="evaluate"
        )
        assert scheme.estimate(employee_db, 0.1, 0.05, rng=generator) == self.EXPECTED
        assert generator.getstate() != before

    def test_a_solver_generator_is_not_advanced(self, employee_db, employee_keys):
        solver = CQASolver(employee_db, employee_keys, rng=5)
        before = solver._rng.getstate()
        result = solver.count(_NO_EMPLOYEE_3, method="fpras")
        assert result.satisfying == 0.0 and result.details.samples == 1550
        assert solver._rng.getstate() == before
