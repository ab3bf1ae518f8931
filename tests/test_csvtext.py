"""The vectorised CSV formatter against Python's own `'{:.15g}'`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pairbath._csvtext import format_rows
from pairbath.cli import _TRAJECTORY_ROW


def reference(rows):
    return "".join(",".join(f"{v:.15g}" for v in row) + "\n"
                   for row in rows.tolist())


def table_strategy(elements):
    return arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=elements)


@settings(max_examples=200, deadline=None)
@given(table_strategy(st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_table_is_reference_text_or_refused(rows):
    # subnormals and both zeros included
    text = format_rows(rows)
    assert text is None or text == reference(rows)


@settings(max_examples=200, deadline=None)
@given(table_strategy(st.floats(1e-290, 1e15, exclude_max=True)
                      | st.floats(-1e15, -1e-290, exclude_min=True)
                      | st.sampled_from([0.0, -0.0])))
def test_certified_range_is_reference_text_or_refused(rows):
    text = format_rows(rows)
    assert text is None or text == reference(rows)


@pytest.mark.parametrize("value, text, certified", [
    (2.0 ** -22, "2.38418579101562e-07", False),  # exact tie, rounds to even
    (3 * 2.0 ** -22, "7.15255737304688e-07", False),
    (999999999999999.5, "1e+15", False),
    (99999.99999999996, "100000", True),  # rounding carries into the exponent
    (9.999999999999999e-05, "0.0001", True),
    (1e-05, "1e-05", True),
    (1e15, "1e+15", False),
    (-0.0, "-0", True),
    (5e-324, "4.94065645841247e-324", False),
])
def test_pinned_values(value, text, certified):
    rows = np.array([[value]])
    got = format_rows(rows)
    assert (got is not None) == certified
    assert (got if certified else reference(rows)) == text + "\n"


def test_random_tables_are_certified_and_match_the_template():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        rows = (rng.choice([-1.0, 1.0], size=(256, 20))
                * 10.0 ** rng.uniform(-20, 3, size=(256, 20)))
        text = format_rows(rows)
        assert text is not None
        assert text == (_TRAJECTORY_ROW * len(rows)).format(*rows.ravel().tolist())
