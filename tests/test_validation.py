"""Unit tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    InputError,
    as_rng,
    check_fraction,
    check_matrix_pair,
    check_nonnegative_int,
    check_positive_int,
    check_probability_vector,
    check_square_matrix,
    check_vector,
)


def test_check_positive_int():
    assert check_positive_int(3, "x") == 3
    assert check_positive_int(np.int64(5), "x") == 5
    with pytest.raises(ValueError):
        check_positive_int(0, "x")
    with pytest.raises(TypeError):
        check_positive_int(1.5, "x")
    with pytest.raises(TypeError):
        check_positive_int(True, "x")


def test_check_nonnegative_int():
    assert check_nonnegative_int(0, "x") == 0
    with pytest.raises(ValueError):
        check_nonnegative_int(-1, "x")
    with pytest.raises(TypeError):
        check_nonnegative_int("2", "x")


def test_check_fraction():
    assert check_fraction(0.0, "x") == 0.0
    assert check_fraction(1, "x") == 1.0
    with pytest.raises(ValueError):
        check_fraction(1.01, "x")
    with pytest.raises(ValueError):
        check_fraction(-0.1, "x")


def test_check_square_matrix():
    m = check_square_matrix([[1, 2], [3, 4]], "m")
    assert m.dtype == np.float64
    with pytest.raises(ValueError, match="square"):
        check_square_matrix(np.zeros((2, 3)), "m")
    with pytest.raises(ValueError, match="2x2"):
        check_square_matrix(np.zeros((3, 3)), "m", size=2)
    with pytest.raises(ValueError, match="negative"):
        check_square_matrix([[-1.0]], "m")
    check_square_matrix([[-1.0]], "m", nonnegative=False)
    with pytest.raises(ValueError, match="non-finite"):
        check_square_matrix([[np.nan]], "m")


def test_check_matrix_pair():
    check_matrix_pair(np.zeros((2, 2)), np.ones((2, 2)), "a", "b")
    with pytest.raises(ValueError, match="same shape"):
        check_matrix_pair(np.zeros((2, 2)), np.zeros((3, 3)), "a", "b")


def test_check_vector():
    v = check_vector([1, 2, 3], "v")
    assert v.dtype == np.int64
    with pytest.raises(ValueError, match="1-D"):
        check_vector(np.zeros((2, 2)), "v")
    with pytest.raises(ValueError, match="length 2"):
        check_vector([1], "v", size=2)


def test_check_vector_rejects_boolean_arrays():
    with pytest.raises(TypeError, match="caps must be numeric"):
        check_vector(np.array([True, False, True]), "caps")


def test_check_vector_rejects_non_integral_floats():
    """The old behavior silently truncated [2.7, 3.9] -> [2, 3]."""
    with pytest.raises(ValueError, match=r"caps must contain integral values"):
        check_vector([2.7, 3.9], "caps")
    with pytest.raises(ValueError, match=r"caps\[1\] = 3.9"):
        check_vector([2.0, 3.9], "caps")


def test_check_vector_accepts_integral_floats():
    v = check_vector([2.0, 3.0], "caps")
    assert v.dtype == np.int64
    np.testing.assert_array_equal(v, [2, 3])


def test_check_vector_rejects_non_finite_for_integer_targets():
    with pytest.raises(ValueError, match="non-finite"):
        check_vector([1.0, np.nan], "caps")
    with pytest.raises(ValueError, match="non-finite"):
        check_vector([1.0, np.inf], "caps")


def test_check_vector_float_target_passes_floats_through():
    v = check_vector([2.7, 3.9], "xs", dtype=np.float64)
    assert v.dtype == np.float64
    np.testing.assert_allclose(v, [2.7, 3.9])


def test_check_square_matrix_rejects_non_finite():
    mat = np.ones((3, 3))
    mat[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        check_square_matrix(mat, "m")
    mat[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        check_square_matrix(mat, "m")


def test_check_probability_vector():
    p = check_probability_vector([0.25, 0.75], "p")
    assert p.dtype == np.float64
    np.testing.assert_allclose(p, [0.25, 0.75])
    with pytest.raises(ValueError, match="sum to 1"):
        check_probability_vector([0.5, 0.6], "p")
    with pytest.raises(ValueError, match="1-D"):
        check_probability_vector(np.full((2, 2), 0.25), "p")
    with pytest.raises(ValueError, match="length 3"):
        check_probability_vector([0.5, 0.5], "p", size=3)
    with pytest.raises(ValueError, match="not be empty"):
        check_probability_vector([], "p")
    with pytest.raises(ValueError, match="negative"):
        check_probability_vector([1.5, -0.5], "p")
    with pytest.raises(ValueError, match="non-finite"):
        check_probability_vector([np.nan, 1.0], "p")


def test_check_probability_vector_normalize():
    p = check_probability_vector([2.0, 6.0], "w", normalize=True)
    np.testing.assert_allclose(p, [0.25, 0.75])
    assert abs(p.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="positive sum"):
        check_probability_vector([0.0, 0.0], "w", normalize=True)


def test_as_rng():
    rng = as_rng(0)
    assert isinstance(rng, np.random.Generator)
    assert as_rng(rng) is rng
    a = as_rng(7).integers(1000)
    b = as_rng(7).integers(1000)
    assert a == b


@pytest.mark.parametrize(
    "check, value",
    [
        (check_fraction, "half"),
        (check_square_matrix, [["a", "b"], ["c", "d"]]),
        (check_vector, [[1], [2, 3]]),
        (check_vector, ["a", "b"]),
        (check_probability_vector, ["x", 0.5]),
    ],
    ids=["fraction-str", "matrix-str", "vector-ragged", "vector-str", "probs-str"],
)
def test_unconvertible_input_is_an_input_error_naming_the_argument(check, value):
    with pytest.raises(InputError, match="^arg (is malformed|must be numeric)"):
        check(value, "arg")


@pytest.mark.parametrize("seed", ["x", -1, 1.5])
def test_as_rng_rejects_a_bad_seed_as_an_input_error(seed):
    with pytest.raises(InputError, match="^seed is malformed"):
        as_rng(seed)
