import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flemvi.geometry import interval, rectangle

PI = math.pi


def test_interval_basic():
    dom = interval(0.0, PI)
    assert dom.dimension == 1
    assert dom.sides == (PI,)
    assert dom.contains([1.0])
    assert not dom.contains([0.0])  # boundary is not interior
    assert not dom.contains([-0.1])
    assert dom.on_boundary([0.0])
    assert dom.on_boundary([PI])
    assert dom.dist_to_boundary_many([1.0]) == pytest.approx(1.0)
    assert dom.dist_to_boundary_many([3.0]) == pytest.approx(PI - 3.0)


def test_rectangle_basic():
    dom = rectangle(0.0, 2.0, 0.0, 1.0)
    assert dom.dimension == 2
    assert dom.sides == (2.0, 1.0)
    assert dom.contains([1.0, 0.5])
    assert not dom.contains([1.0, 1.0])
    assert dom.dist_to_boundary_many([0.3, 0.5]) == pytest.approx(0.3)
    assert dom.dist_to_boundary_many([1.0, 0.9]) == pytest.approx(0.1)


def test_contains_many_and_dist_many():
    dom = rectangle(0.0, 2.0, 0.0, 1.0)
    pts = np.array([[0.5, 0.5], [2.5, 0.5], [1.0, -0.1], [1.999, 0.999]])
    np.testing.assert_array_equal(dom.contains_many(pts), [True, False, False, True])
    d = dom.dist_to_boundary_many(pts[[0, 3]])
    assert d[0] == pytest.approx(0.5)
    assert d[1] == pytest.approx(0.001)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        interval(1.0, 1.0)
    with pytest.raises(ValueError):
        rectangle(0.0, 1.0, 2.0, 1.0)


def test_project_to_boundary_interval():
    dom = interval(0.0, PI)
    hit = dom.project_to_boundary([0.5], [-0.3])
    assert hit[0] == pytest.approx(0.0)
    hit = dom.project_to_boundary([3.0], [3.5])
    assert hit[0] == pytest.approx(PI)


def test_project_to_boundary_rectangle_on_segment():
    dom = rectangle(0.0, 2.0, 0.0, 1.0)
    prev, nxt = np.array([1.0, 0.5]), np.array([1.4, 1.3])
    hit = dom.project_to_boundary(prev, nxt)
    assert dom.on_boundary(hit, tol=1e-9)
    # hit lies on the segment prev -> nxt
    t = (hit - prev) / (nxt - prev)
    assert t[0] == pytest.approx(t[1])
    assert 0.0 <= t[0] <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(min_value=1e-6, max_value=PI - 1e-6),
    y=st.floats(min_value=0.01, max_value=1.49),
)
def test_interior_points_have_positive_boundary_distance(x, y):
    dom = rectangle(0.0, PI, 0.0, 1.5)
    assert dom.contains([x, y])
    d = dom.dist_to_boundary_many([x, y])
    assert d > 0
    assert d == pytest.approx(min(x, PI - x, y, 1.5 - y))


@settings(max_examples=50, deadline=None)
@given(
    inner=st.floats(min_value=0.1, max_value=PI - 0.1),
    outer=st.floats(min_value=-1.0, max_value=PI + 1.0),
)
def test_projection_lands_on_boundary(inner, outer):
    dom = interval(0.0, PI)
    if dom.contains([outer]):
        return  # only crossing pairs are meaningful
    hit = dom.project_to_boundary([inner], [outer])
    assert dom.on_boundary(hit, tol=1e-9)
