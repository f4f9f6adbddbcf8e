"""Unit and property tests for selectors, boxes and union-of-boxes counting."""

import gc
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.lams import (
    Box,
    Selector,
    connected_components,
    count_union_by_enumeration,
    count_union_decomposed,
    count_union_inclusion_exclusion,
    count_union_of_boxes,
)


class TestSelector:
    def test_construction_and_accessors(self):
        selector = Selector({2: 1, 0: 3})
        assert selector.pins == ((0, 3), (2, 1))
        assert selector.length == 2
        assert selector.pinned_indices() == (0, 2)
        assert selector.as_dict() == {0: 3, 2: 1}

    def test_duplicate_pins_rejected(self):
        with pytest.raises(ValueError):
            Selector([(0, 1), (0, 2)])

    def test_consistency_and_merge(self):
        first = Selector({0: 1, 2: 0})
        second = Selector({2: 0, 3: 1})
        third = Selector({2: 1})
        assert first.is_consistent_with(second)
        assert not first.is_consistent_with(third)
        merged = first.merge(second)
        assert merged.as_dict() == {0: 1, 2: 0, 3: 1}
        with pytest.raises(ValueError):
            first.merge(third)


class TestBox:
    def test_size_and_contains(self):
        box = Box(Selector({1: 0}), (3, 2, 4))
        assert box.size() == 12
        assert box.contains((0, 0, 3))
        assert not box.contains((0, 1, 3))

    def test_out_of_range_pins_rejected(self):
        with pytest.raises(ValueError):
            Box(Selector({5: 0}), (2, 2))
        with pytest.raises(ValueError):
            Box(Selector({0: 7}), (2, 2))


def _brute_force_union(domain_sizes, selectors):
    """Reference implementation: enumerate the full product space."""
    count = 0
    for point in itertools.product(*(range(size) for size in domain_sizes)):
        if any(
            all(point[index] == element for index, element in selector.pins)
            for selector in selectors
        ):
            count += 1
    return count


class TestUnionOfBoxes:
    def test_no_boxes_is_zero(self):
        assert count_union_of_boxes((2, 3), []) == 0

    def test_empty_selector_covers_everything(self):
        assert count_union_of_boxes((2, 3), [Selector({})]) == 6

    def test_an_empty_domain_no_box_pins_empties_the_union(self):
        sizes = (2, 0, 3)
        boxes = [Selector({0: 1}), Selector({0: 0, 2: 2})]
        for method in ("decomposed", "inclusion-exclusion", "enumeration"):
            assert count_union_of_boxes(sizes, boxes, method=method) == 0
        assert count_union_decomposed(sizes, boxes, total=0) == 0

    def test_disjoint_and_overlapping_boxes(self):
        sizes = (2, 2, 2)
        disjoint = [Selector({0: 0}), Selector({0: 1, 1: 0})]
        assert count_union_of_boxes(sizes, disjoint) == 4 + 2
        overlapping = [Selector({0: 0}), Selector({1: 0})]
        assert count_union_of_boxes(sizes, overlapping) == 4 + 4 - 2

    def test_subsumed_boxes_do_not_change_the_union(self):
        sizes = (2, 2)
        assert count_union_of_boxes(sizes, [Selector({0: 0}), Selector({0: 0, 1: 1})]) == 2

    def test_methods_agree_on_a_fixed_instance(self):
        sizes = (3, 2, 4, 2)
        selectors = [
            Selector({0: 1, 1: 0}),
            Selector({2: 3}),
            Selector({0: 2, 3: 1}),
            Selector({1: 1, 2: 0}),
        ]
        expected = _brute_force_union(sizes, selectors)
        assert count_union_inclusion_exclusion(sizes, selectors) == expected
        assert count_union_by_enumeration(sizes, selectors) == expected
        assert count_union_decomposed(sizes, selectors) == expected

    def test_inclusion_exclusion_leaves_no_garbage_cycle(self):
        """A call frees everything it allocates by reference counting, so
        none of it waits for the cyclic collector."""
        sizes = (3, 2, 4, 2)
        selectors = [Selector({0: 1, 1: 0}), Selector({2: 3}), Selector({1: 1, 2: 0})]
        expected = _brute_force_union(sizes, selectors)
        gc.collect()
        gc.disable()
        try:
            counts = {count_union_inclusion_exclusion(sizes, selectors) for _ in range(100)}
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert counts == {expected}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            count_union_of_boxes((2,), [Selector({0: 0})], method="magic")

    def test_connected_components_group_by_shared_coordinates(self):
        selectors = [Selector({0: 0, 1: 1}), Selector({1: 0}), Selector({3: 1})]
        components = connected_components(selectors)
        sizes = sorted(len(component) for component in components)
        assert sizes == [1, 2]


# --------------------------------------------------------------------------- #
# property: all three strategies agree with brute force
# --------------------------------------------------------------------------- #
@st.composite
def _union_instance(draw):
    dimension = draw(st.integers(min_value=1, max_value=5))
    sizes = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(dimension))
    box_count = draw(st.integers(min_value=0, max_value=8))
    selectors = []
    for _ in range(box_count):
        pin_count = draw(st.integers(min_value=0, max_value=min(3, dimension)))
        coordinates = draw(
            st.lists(
                st.integers(min_value=0, max_value=dimension - 1),
                min_size=pin_count,
                max_size=pin_count,
                unique=True,
            )
        )
        pins = {
            coordinate: draw(st.integers(min_value=0, max_value=sizes[coordinate] - 1))
            for coordinate in coordinates
        }
        selectors.append(Selector(pins))
    if draw(st.booleans()):
        # An empty domain no box pins: the space, and so the union, is empty.
        sizes += (0,)
    return sizes, selectors


@given(_union_instance())
@settings(max_examples=120, deadline=None)
def test_union_counting_strategies_agree_with_bruteforce(instance):
    sizes, selectors = instance
    expected = _brute_force_union(sizes, selectors)
    total = math.prod(sizes)  # as a caller holding a decomposition passes it
    assert count_union_inclusion_exclusion(sizes, selectors) == expected
    assert count_union_by_enumeration(sizes, selectors) == expected
    assert count_union_decomposed(sizes, selectors) == expected
    assert count_union_decomposed(sizes, selectors, total) == expected
