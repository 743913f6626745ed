import sys

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from relaxor import svgplot
from relaxor.svgplot import (Series, _fmt, _points, dual_phase_plane_svg, line_plot,
                             time_series_svg)

# %.4f rounds -4e-5 to -0.0000 and 0.99995 (stored just below) down to
# 0.9999; 12.00004 loses its decimals, 1e6 keeps its integer zeros
EDGE_VALUES = [-4e-5, 0.99995, 12.00004, 1e6, 0.0, -0.0, -3.5, -12.000049, -1e6,
               0.5, 0.05, 100.0, 10.10101, 2.00005, 1e-9, 123.45, np.inf, np.nan]


def _reference_points(xs, ys):
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))


def test_points_equal_per_point_fmt_on_edge_values():
    values = np.array(EDGE_VALUES)
    for xs, ys in ((values, values[::-1]), (values[:1], values[1:2]),
                   (np.array([]), np.array([]))):
        assert _points(xs, ys) == _reference_points(xs, ys)


def test_points_equal_per_point_fmt_on_random_values():
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.integers(0, 6, 5000)  # short decimals end in zeros under %.4f
    xs = np.round(rng.uniform(-1e3, 1e3, 5000) * scale) / scale
    ys = rng.normal(0.0, 1e-3, 5000)
    assert _points(xs, ys) == _reference_points(xs, ys)


def test_figures_equal_per_point_formatting(monkeypatch, reference_orbits):
    _, _, orbit = reference_orbits["hybrid"]
    fast = (time_series_svg(orbit.times, orbit.states, title="t"), dual_phase_plane_svg(orbit))
    monkeypatch.setattr(svgplot, "_points", _reference_points)
    slow = (time_series_svg(orbit.times, orbit.states, title="t"), dual_phase_plane_svg(orbit))
    assert fast == slow


# 1000.00004 and -100.00001 print integer zeros before an all-zero fraction,
# which a strip of "0" before the separator would eat down to "1" and "-1"
@given(st.lists(st.tuples(st.floats(), st.floats())))
@example([(0.0, -0.0), (sys.float_info.min / 3, -5e-324), (np.inf, -np.inf),
          (np.nan, 1e300), (1000.00004, -100.00001), (-1e300, 10.0)])
def test_points_equal_per_point_fmt_on_any_doubles(pairs):
    xs = np.array([x for x, _ in pairs], dtype=float)
    ys = np.array([y for _, y in pairs], dtype=float)
    assert _points(xs, ys) == _reference_points(xs, ys)
    assert _points(ys, xs) == _reference_points(ys, xs)


def _assert_per_point(monkeypatch, draw):
    fast = draw()
    monkeypatch.setattr(svgplot, "_points", _reference_points)
    assert fast == draw()


def test_figure_of_four_series_on_one_shared_x_equals_per_point_formatting(monkeypatch):
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 50.0, 2000)
    series = [Series(t, rng.normal(size=2000).cumsum(), name, *svgplot.VARIABLE_STYLES[name])
              for name in ("p1", "p2", "z", "q")]
    _assert_per_point(monkeypatch, lambda: line_plot(series, "t", "y", title="shared"))


def test_figure_of_four_series_with_their_own_x_equals_per_point_formatting(monkeypatch):
    rng = np.random.default_rng(12)
    series = [Series(np.sort(rng.uniform(0.0, 50.0, 2000)), rng.normal(size=2000).cumsum(), str(i))
              for i in range(4)]
    _assert_per_point(monkeypatch, lambda: line_plot(series, "x", "y", title="own"))
