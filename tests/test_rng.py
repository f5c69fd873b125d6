"""Addressable random streams: same (seed, tags) must always reproduce the
same draw, and distinct tags must give independent values."""

import hashlib

import numpy as np
import pytest

from moelab.rng import Rng


def test_same_tags_same_values():
    r = Rng(42)
    a = r.stream("route", 3, 17).normal(size=(2, 5))
    b = r.stream("route", 3, 17).normal(size=(2, 5))
    np.testing.assert_array_equal(a, b)


def test_order_free_addressing():
    # tags address a draw; unrelated intervening draws must not shift it
    r = Rng(9)
    first = r.stream("drop", 1, 0).normal(size=8)
    for j in range(20):
        r.stream("other", j).normal(size=100)
    again = r.stream("drop", 1, 0).normal(size=8)
    np.testing.assert_array_equal(first, again)


def test_distinct_tags_distinct_values():
    r = Rng(0)
    a = r.stream("route", 0, 0).normal(size=16)
    b = r.stream("route", 0, 1).normal(size=16)
    c = r.stream("route", 1, 0).normal(size=16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_distinct_seeds_distinct_values():
    a = Rng(1).stream("x").normal(size=16)
    b = Rng(2).stream("x").normal(size=16)
    assert not np.array_equal(a, b)


def test_string_vs_int_tags_disambiguated():
    r = Rng(5)
    a = r.stream("1").normal(size=8)
    b = r.stream(1).normal(size=8)
    assert not np.array_equal(a, b)


def test_tag_concatenation_not_ambiguous():
    # ("ab", "c") and ("a", "bc") must hash differently
    r = Rng(5)
    a = r.stream("ab", "c").normal(size=8)
    b = r.stream("a", "bc").normal(size=8)
    assert not np.array_equal(a, b)


def test_key_is_blake2b_of_seed_and_tags():
    # the seed's hasher is copied per key, never advanced by one
    key = np.frombuffer(hashlib.blake2b(b"21|i3|sdrop|i-1",
                                        digest_size=16).digest(), np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).random(4)
    r = Rng(21)
    for _ in range(2):
        np.testing.assert_array_equal(r.stream(3, "drop", -1).random(4), want)
        np.testing.assert_array_equal(_uniform(r.raw(4, 3, "drop", -1)),
                                      want)


def test_bad_tag_type_rejected():
    r = Rng(0)
    with pytest.raises(TypeError):
        r.stream(3.14)
    with pytest.raises(TypeError):
        r.stream(True)


def test_normal_helper_matches_stream():
    r = Rng(3)
    np.testing.assert_array_equal(
        r.normal((4, 4), "init", "w1"),
        r.stream("init", "w1").standard_normal((4, 4), dtype=np.float64),
    )


def test_stream_statistics():
    x = Rng(123).stream("stats").normal(size=200000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_numpy_integer_tags_equal_python_ints():
    r = Rng(11)
    a = r.stream("layer", np.int64(4)).normal(size=4)
    b = r.stream("layer", 4).normal(size=4)
    np.testing.assert_array_equal(a, b)


def _uniform(raw):
    """The uniform draws random() makes of raw words."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def test_keyed_draws_equal_fresh_streams():
    # normal and raw re-key one owned generator; every draw must equal that
    # of a fresh stream(*tags), whatever was drawn before it
    r = Rng(17)
    tag_sets = [("drop", 1, 0, -1, 3, 0), ("route", 0, 5), ("x",), ()]
    shapes = [(1, 1), (3, 7), (5,), (0, 4)]
    for tags in tag_sets:
        for shape in shapes:
            got = r.raw(shape, *tags)
            assert got.shape == shape and got.dtype == np.uint64
            np.testing.assert_array_equal(
                got, r.stream(*tags).bit_generator.random_raw(shape))
            np.testing.assert_array_equal(_uniform(got),
                                          r.stream(*tags).random(shape))
            np.testing.assert_array_equal(
                r.normal(shape, *tags),
                r.stream(*tags).standard_normal(shape))


def test_keyed_draws_interleaved_into_segments():
    r = Rng(4)
    buf = np.empty((6, 4))
    buf[:2] = _uniform(r.raw((2, 4), "drop", 0, 1))
    between = r.normal((3, 3), "route", 2)
    buf[2:3] = _uniform(r.raw((1, 4), "drop", 1, 1))
    buf[3:] = _uniform(r.raw((3, 4), "drop", 0, 1))
    np.testing.assert_array_equal(buf[:2],
                                  r.stream("drop", 0, 1).random((2, 4)))
    np.testing.assert_array_equal(buf[2:3],
                                  r.stream("drop", 1, 1).random((1, 4)))
    np.testing.assert_array_equal(buf[3:],
                                  r.stream("drop", 0, 1).random((3, 4)))
    np.testing.assert_array_equal(
        between, r.stream("route", 2).standard_normal((3, 3)))


def test_stream_is_fresh_and_unaliased():
    r = Rng(6)
    g = r.stream("a")
    first = g.random(3)
    r.raw(5, "a")
    r.normal(4, "b")
    assert r.stream("a") is not g
    np.testing.assert_array_equal(np.concatenate([first, g.random(3)]),
                                  r.stream("a").random(6))
