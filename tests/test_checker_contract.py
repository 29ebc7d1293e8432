"""The batch contract of the public checkers, as a property: on any (N, d)
array of points, row r of a checker's result is by its bytes the result at
the point of row r alone, and a batch raises exactly when some row does."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_checkers import CONTRACT

# where 1 + conj q1 - conj q2 = 0: the closed form R^6 -> C divides by zero
SINGULAR_R6 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def _outcome(residuals, P):
    """The residuals at P, or the exception they raise."""
    try:
        with np.errstate(all="ignore"):
            return residuals(P)
    except Exception as exc:  # the property compares errors too
        return exc


@st.composite
def _points(draw, dim):
    """1 to 6 rows with coordinates in [-1, 1] or in [-1e3, 1e3]; in R^6,
    some rows may be the closed form's singular point."""
    scale = draw(st.sampled_from([1.0, 1e3]))
    row = hnp.arrays(float, dim, elements=st.floats(-scale, scale))
    if dim == 6:
        row = st.one_of(row, st.just(SINGULAR_R6))
    return np.array(draw(st.lists(row, min_size=1, max_size=6)))


@pytest.mark.parametrize("name", sorted(CONTRACT))
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_rows_are_one_point_calls(name, data):
    dim, residuals = CONTRACT[name]
    P = data.draw(_points(dim))
    ones = [_outcome(residuals, p) for p in P]
    batch = _outcome(residuals, P)
    errors = tuple(type(one) for one in ones if isinstance(one, Exception))
    if errors:
        assert isinstance(batch, errors)
        return
    assert not isinstance(batch, Exception), batch
    for k, got in enumerate(batch):
        want = [one[k] for one in ones]
        assert all(type(w) is float for w in want)
        assert np.asarray(got).tobytes() == np.array(want).tobytes()
