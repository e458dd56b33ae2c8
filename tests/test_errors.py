"""Properties of `errors.real`, the one check of every real-valued input.

The rule it states: a value is admitted when it is a real number, not a
bool, finite, and inside every bound given (`above` and `below` open,
`at_least` and `at_most` closed); an array when each element is.  An
admitted value comes back as the same object; any other raises the
caller's error type, naming the argument.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gladsim.errors import ConfigError, ParameterError, real

_TESTS = {"above": operator.gt, "at_least": operator.ge,
          "below": operator.lt, "at_most": operator.le}


def _admits(x, bounds: dict) -> bool:
    """The rule for one Python number."""
    return math.isfinite(x) and all(_TESTS[key](x, b) for key, b in bounds.items())


def _checked(value, bounds: dict) -> bool:
    """True when `real` returns `value` itself, False when it raises naming the argument."""
    try:
        out = real("arg", value, **bounds)
    except ParameterError as exc:
        assert str(exc).startswith("arg must be ")
        return False
    assert out is value
    return True


_bound_values = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
_bounds = st.dictionaries(st.sampled_from(sorted(_TESTS)), _bound_values)


@st.composite
def _value_and_bounds(draw, values=st.one_of(st.floats(), st.integers(-5, 5))):
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
        dtype = data.draw(st.sampled_from([np.float64, np.float32, np.int64]))
        values = st.sampled_from(sorted(bounds.values())) if bounds else st.nothing()
        if dtype is np.int64:
            elements = st.one_of(st.integers(-5, 5), values.map(math.floor))
        else:
            elements = st.one_of(st.floats(width=32), values.map(np.float32).map(float))
        a = data.draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                         max_side=4), elements=elements))
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
