"""Deterministic RNG derivation."""

import numpy as np

from repro.util.rng import SeedSequenceFactory


def test_same_seed_same_label_reproduces_stream():
    a = SeedSequenceFactory(42).rng("node-1").standard_normal(8)
    b = SeedSequenceFactory(42).rng("node-1").standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_different_labels_decorrelate():
    a = SeedSequenceFactory(42).rng("node-1").standard_normal(64)
    b = SeedSequenceFactory(42).rng("node-2").standard_normal(64)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = SeedSequenceFactory(1).rng("x").standard_normal(64)
    b = SeedSequenceFactory(2).rng("x").standard_normal(64)
    assert not np.allclose(a, b)


def test_child_factory_is_independent_but_deterministic():
    c1 = SeedSequenceFactory(7).child("sub").rng("x").standard_normal(8)
    c2 = SeedSequenceFactory(7).child("sub").rng("x").standard_normal(8)
    parent = SeedSequenceFactory(7).rng("x").standard_normal(8)
    np.testing.assert_array_equal(c1, c2)
    assert not np.allclose(c1, parent)

