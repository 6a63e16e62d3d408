import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabuq import SeededRng
from tabuq.errors import ParameterError
from tabuq.rng import _label_hash, _words


def test_same_seed_same_stream():
    a = SeededRng(42).normal(16)
    b = SeededRng(42).normal(16)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(SeededRng(0).normal(16), SeededRng(1).normal(16))


def test_split_labels_are_independent():
    root = SeededRng(7)
    a = root.split("a").normal(16)
    b = root.split("b").normal(16)
    assert not np.array_equal(a, b)


def test_split_is_pure():
    # Splitting the same label twice recreates the identical child stream,
    # regardless of how much the first child has already been consumed.
    root = SeededRng(7)
    first = root.split("score")
    first.normal(100)
    np.testing.assert_array_equal(root.split("score").normal(8),
                                  SeededRng(7).split("score").normal(8))


def test_nested_paths_do_not_collide():
    r = SeededRng(3)
    ab_c = r.split("ab").split("c").normal(8)
    a_bc = r.split("a").split("bc").normal(8)
    flat = r.split("ab.c").normal(8)
    assert not np.array_equal(ab_c, a_bc)
    assert not np.array_equal(ab_c, flat)


def test_child_does_not_disturb_parent():
    a = SeededRng(11)
    b = SeededRng(11)
    a.split("x").normal(1000)
    np.testing.assert_array_equal(a.normal(8), b.normal(8))


def test_wrappers_shapes_and_ranges():
    r = SeededRng(0)
    assert r.normal((3, 4)).shape == (3, 4)
    u = r.uniform(-2.0, 5.0, 1000)
    assert u.min() >= -2.0 and u.max() < 5.0
    x = r.random(10)
    assert ((0 <= x) & (x < 1)).all()
    ints = r.integers(0, 4, size=100)
    assert set(ints.tolist()) <= {0, 1, 2, 3}
    perm = r.permutation(10)
    assert sorted(perm.tolist()) == list(range(10))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_outside_64_bits_is_refused(seed):
    # Masked to 64 bits, such a seed would draw another seed's streams.
    with pytest.raises(ParameterError, match="seed"):
        SeededRng(seed)


def test_repr_shows_path():
    assert "a/b" in repr(SeededRng(0).split("a").split("b"))


labels = st.text(max_size=6)


@given(seed=st.integers(0, 2**64 - 1), parent=st.lists(labels, max_size=4),
       child=st.lists(labels, min_size=1, max_size=3), parent_draws=st.integers(0, 3))
def test_lazy_child_draws_its_seed_sequence_stream(seed, parent, child, parent_draws):
    node = SeededRng(seed)
    for label in parent:
        node = node.split(label)
    node.random(parent_draws)
    for label in child:
        node = node.split(label)
    entropy = [seed, *(_label_hash(label) for label in parent + child)]
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    np.testing.assert_array_equal(node.random(5), expected.random(5))
    np.testing.assert_array_equal(node.permutation(7), expected.permutation(7))
    np.testing.assert_array_equal(node.random_raw(3), expected.bit_generator.random_raw(3))


def test_only_the_node_that_draws_builds_a_generator(monkeypatch):
    built = []
    real = np.random.SeedSequence

    def counted(entropy):
        built.append(entropy)
        return real(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    SeededRng(0).split("a").split("b").random(1)
    assert len(built) == 1


@pytest.mark.parametrize("value", [0, 1, 2**32 - 1, 2**32, 7 << 32, 2**64 - 1, 2**64,
                                   (2**96) | 5, 2**128 - 1])
def test_entropy_words_are_what_seed_sequence_reads(value):
    # A label hash whose high words are zero is as short as the int is.
    words = np.frombuffer(_words(3) + _words(value), dtype="<u4")
    np.testing.assert_array_equal(np.random.SeedSequence(words).generate_state(8),
                                  np.random.SeedSequence([3, value]).generate_state(8))
