"""Unit tests for the seed tree (randomness plumbing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.rng import SeedTree, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_distinct_labels_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_distinct_masters_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_structure_matters(self):
        # ("a", "b") must differ from ("ab",): labels are delimited.
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_empty_path_differs_from_any_label(self):
        assert derive_seed(5) != derive_seed(5, "")

    def test_non_negative(self):
        assert derive_seed(123, "x") >= 0


class TestSeedTree:
    def test_root_seed_is_master(self):
        assert SeedTree(99).seed == 99

    def test_child_path(self):
        tree = SeedTree(1).child("a").child("b")
        assert tree.path == ("a", "b")

    def test_same_path_same_stream(self):
        one = SeedTree(7).child("x").rng()
        two = SeedTree(7).child("x").rng()
        assert [one.random() for _ in range(5)] == [two.random() for _ in range(5)]

    def test_sibling_streams_differ(self):
        one = SeedTree(7).child("x").rng()
        two = SeedTree(7).child("y").rng()
        assert [one.random() for _ in range(5)] != [two.random() for _ in range(5)]

    def test_schedule_and_algorithm_branches_are_independent(self):
        # The structural independence the oblivious model relies on.
        tree = SeedTree(42)
        schedule = tree.child("schedule").rng()
        algorithm = tree.child("algorithm").rng()
        assert schedule.getrandbits(64) != algorithm.getrandbits(64)

    def test_children_generator(self):
        tree = SeedTree(3)
        kids = list(tree.children("proc", 4))
        assert len(kids) == 4
        assert len({kid.seed for kid in kids}) == 4

    def test_equality_and_hash(self):
        assert SeedTree(1).child("a") == SeedTree(1).child("a")
        assert hash(SeedTree(1).child("a")) == hash(SeedTree(1).child("a"))
        assert SeedTree(1).child("a") != SeedTree(1).child("b")

    def test_equality_not_implemented_for_other_types(self):
        assert SeedTree(1) != "not a tree"

    def test_tree_is_immutable_by_branching(self):
        root = SeedTree(5)
        child = root.child("x")
        assert root.path == ()
        assert child.path == ("x",)


class TestChildRngs:
    @settings(max_examples=60, deadline=None)
    @given(
        master=st.integers(min_value=-(2**70), max_value=2**70),
        path=st.lists(st.text(max_size=8), max_size=3),
        prefix=st.text(max_size=10),
        count=st.integers(min_value=0, max_value=24),
    )
    def test_streams_match_per_child_derivation(self, master, path, prefix, count):
        tree = SeedTree(master, tuple(path))
        shared_hash = tree.child_rngs(prefix, count)
        per_child = [child.rng() for child in tree.children(prefix, count)]
        assert len(shared_hash) == count
        assert [[rng.getrandbits(64) for _ in range(4)] for rng in shared_hash] == [
            [rng.getrandbits(64) for _ in range(4)] for rng in per_child
        ]

    def test_process_streams_of_a_trial(self):
        algorithm = SeedTree(2012).child("trial-7").child("algorithm")
        rngs = algorithm.child_rngs("process", 64)
        assert [rng.random() for rng in rngs] == [
            algorithm.child(f"process-{pid}").rng().random() for pid in range(64)
        ]
