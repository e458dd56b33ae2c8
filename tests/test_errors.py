"""Properties of `errors.real`, `errors.integer` and `errors.array`, the
checks of every real, integer and array input.

The rule `real` states: a value is admitted when it is a real number, not a
bool, finite (a Python int no larger in magnitude than the largest float, a
Fraction that does not round beyond it), and inside every bound given
(`above` and `below` open, `at_least` and `at_most` closed); an array when
each element is.  An admitted value comes back as the
same object; any other raises the caller's error type, naming the argument.
`integer` admits a Python or numpy integer, not a bool, by the same bounds and
returns it as a Python int.  `array` admits a value of the wanted shape, where
None matches any length, whose elements `real` admits, and returns it as a
float array.
"""

import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gladsim.errors import ConfigError, ParameterError, array, integer, real

_TESTS = {"above": operator.gt, "at_least": operator.ge,
          "below": operator.lt, "at_most": operator.le}


def _admits(x, bounds: dict) -> bool:
    """The rule for one Python number."""
    finite = math.isfinite(x) if isinstance(x, float) else abs(x) <= sys.float_info.max
    return finite and all(_TESTS[key](x, b) for key, b in bounds.items())


def _checked(value, bounds: dict) -> bool:
    """True when `real` returns `value` itself, False when it raises naming the argument."""
    try:
        out = real("arg", value, **bounds)
    except ParameterError as exc:
        assert str(exc).startswith("arg must be ")
        return False
    assert out is value
    return True


def _drawn_array(data, bounds: dict) -> np.ndarray:
    """A float64, float32 or int64 array of up to two dimensions, whose
    elements are often the bounds themselves."""
    dtype = data.draw(st.sampled_from([np.float64, np.float32, np.int64]))
    values = st.sampled_from(sorted(bounds.values())) if bounds else st.nothing()
    if dtype is np.int64:
        elements = st.one_of(st.integers(-5, 5), values.map(math.floor))
    else:
        elements = st.one_of(st.floats(width=32), values.map(np.float32).map(float))
    return data.draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                        max_side=4), elements=elements))


_bound_values = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
# Python ints at and beyond the largest float, which math.isfinite cannot take.
_FLOAT_MAX = int(sys.float_info.max)
_far_ints = st.sampled_from([s * n for n in (_FLOAT_MAX, _FLOAT_MAX + 1, 10**400) for s in (1, -1)])
# Fractions far beyond it, which float() overflowed on with a raw OverflowError.
_far_fractions = st.sampled_from([Fraction(10**400), -Fraction(10**400)])
_bounds = st.dictionaries(st.sampled_from(sorted(_TESTS)), _bound_values)


@st.composite
def _value_and_bounds(draw, values=st.one_of(st.floats(), st.integers(-5, 5), _far_ints,
                                             _far_fractions)):
    """Bounds, and a value that is often one of them, so both sides of each are tried."""
    bounds = draw(_bounds)
    candidates = [values] + ([st.sampled_from(sorted(bounds.values()))] if bounds else [])
    return draw(st.one_of(candidates)), bounds


class TestReal:
    @given(_value_and_bounds())
    def test_python_numbers_follow_the_rule(self, case):
        value, bounds = case
        assert _checked(value, bounds) == _admits(value, bounds)

    @given(_bound_values)
    def test_open_bounds_exclude_and_closed_bounds_include_the_bound(self, b):
        assert _checked(b, {"at_least": b}) and _checked(b, {"at_most": b})
        assert not _checked(b, {"above": b}) and not _checked(b, {"below": b})

    @given(_value_and_bounds(st.floats(-10.0, 10.0, width=32)),
           st.sampled_from([np.float64, np.float32]))
    def test_numpy_floats_check_as_python_floats(self, case, dtype):
        value, bounds = case
        x = dtype(value)
        assert _checked(x, bounds) == _admits(float(x), bounds)

    @given(_value_and_bounds(st.integers(-5, 5)),
           st.sampled_from([np.int64, np.int32, np.int8]))
    def test_numpy_integers_check_as_python_ints(self, case, dtype):
        value, bounds = case
        n = math.floor(value)
        assert _checked(dtype(n), bounds) == _admits(n, bounds)

    @given(st.sampled_from([True, False, np.True_, np.False_]), _bounds)
    def test_bools_of_either_kind_are_refused(self, flag, bounds):
        assert not _checked(flag, bounds)
        assert not _checked(np.array([flag, flag]), bounds)

    @pytest.mark.parametrize("value", ["1", None, [0.5], 1j, np.array(["1"]),
                                       np.array([0.5], dtype=object)])
    def test_non_numbers_are_refused(self, value):
        assert not _checked(value, {})

    def test_other_real_types_are_admitted(self):
        assert _checked(Fraction(1, 3), {"above": 0, "below": 1})
        assert not _checked(Fraction(4, 3), {"above": 0, "below": 1})

    @given(st.data(), _bounds)
    def test_arrays_are_checked_elementwise(self, data, bounds):
        a = _drawn_array(data, bounds)
        assert _checked(a, bounds) == all(_admits(x.item(), bounds) for x in a.flat)

    def test_a_failure_states_the_rule_and_an_offending_element_not_the_array(self):
        with pytest.raises(ParameterError,
                           match=r"^arg must be finite and >= 0 and <= 1, got 2\.5$"):
            real("arg", np.array([0.5, 2.5, 0.7]), at_least=0, at_most=1)
        with pytest.raises(ParameterError, match=r"^arg must be finite and < 1, got nan$"):
            real("arg", np.array([0.5, np.nan]), below=1)

    def test_raises_the_callers_error_type(self):
        with pytest.raises(ConfigError, match="^deadline_us must be finite and > 0, got 0.0$"):
            real("deadline_us", 0.0, above=0, error=ConfigError)


def _integer_checked(value, bounds: dict) -> bool:
    """True when `integer` returns `value` as an equal Python int, False when
    it raises naming the argument."""
    try:
        out = integer("arg", value, **bounds)
    except ParameterError as exc:
        assert str(exc).startswith("arg must be ")
        return False
    assert type(out) is int and out == value
    return True


class TestInteger:
    @given(_value_and_bounds(st.integers(-5, 5)),
           st.sampled_from([int, np.int64, np.int32, np.int8]))
    def test_integers_follow_the_rule_of_reals(self, case, kind):
        value, bounds = case
        n = math.floor(value)
        assert _integer_checked(kind(n), bounds) == _admits(n, bounds)

    @given(_value_and_bounds(_far_ints))
    def test_python_ints_follow_the_rule_beyond_the_float_range(self, case):
        # 10**400 passed as a split ratio and overflowed the float delays.
        value, bounds = case
        n = math.floor(value)
        assert _integer_checked(n, bounds) == _admits(n, bounds)

    @given(st.one_of(st.floats(), st.sampled_from(
        [True, False, np.True_, np.float64(2.0), Fraction(2), "1", None])), _bounds)
    def test_non_integers_are_refused_whatever_the_bounds(self, value, bounds):
        # An integral float is refused too: 16.0 is not a split ratio.
        assert not _integer_checked(value, bounds)

    def test_a_failure_states_the_rule(self):
        with pytest.raises(ParameterError, match=r"^seed must be finite and >= 0, got -1$"):
            integer("seed", -1, at_least=0)
        with pytest.raises(ParameterError, match=r"^seed must be an integer, got 1\.5$"):
            integer("seed", 1.5, at_least=0)
        with pytest.raises(ConfigError, match=r"^window must be finite, got nan$"):
            integer("window", math.nan, ConfigError, at_least=1)
        # Python writes out no int of more than 4300 digits.
        with pytest.raises(ParameterError, match=r"^n must be finite and > 0, "
                                                 r"got a number beyond the float range$"):
            integer("n", 10**5000, above=0)


_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


class TestArray:
    @given(st.data())
    def test_a_shape_matches_when_each_length_is_equal_or_none(self, data):
        actual = data.draw(_shapes)
        wanted = tuple(data.draw(st.sampled_from([d, d + 1, None])) for d in actual)
        wanted = data.draw(st.sampled_from([wanted, wanted[:-1], wanted + (None,)]))
        matches = len(wanted) == len(actual) and all(
            w is None or w == d for w, d in zip(wanted, actual))
        try:
            out = array("arg", np.zeros(actual, dtype=np.int64), wanted)
        except ParameterError as exc:
            assert not matches
            assert str(exc).startswith("arg must be (")
            assert str(exc).endswith(f"), got shape {actual}")
        else:
            assert matches and out.shape == actual and out.dtype == np.float64

    @given(st.data(), _bounds)
    def test_elements_are_checked_as_real_checks_them(self, data, bounds):
        a = _drawn_array(data, bounds)
        try:
            out = array("arg", a, a.shape, **bounds)
        except ParameterError:
            assert not _checked(a, bounds)
        else:
            assert _checked(a, bounds)
            assert out.dtype == np.float64 and np.array_equal(out, a)

    @pytest.mark.parametrize("value,shape,message", [
        (np.zeros(4), (None, 5), r"^x must be \(n, 5\), got shape \(4,\)$"),
        ([[0.0, 1.0]], (None,), r"^x must be \(n,\), got shape \(1, 2\)$"),
        ([1.0, 2.0], (3,), r"^x must be \(3,\), got shape \(2,\)$"),
        ([[1.0], [1.0, 2.0]], (None, 1), r"^x must be \(n, 1\), got shape \(2,\)$"),
        ([True, False], (None,), r"^x must be a real number, got an array of bool$"),
        (["1", "2"], (2,), r"^x must be a real number, got an array of <U1$"),
    ])
    def test_refusals_name_the_argument_and_the_rule(self, value, shape, message):
        with pytest.raises(ParameterError, match=message):
            array("x", value, shape)

    def test_a_list_becomes_a_float_array(self):
        out = array("x", [[1, 2, 3]], (None, 3), at_least=0)
        assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.0, 3.0]]
