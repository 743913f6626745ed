import numpy as np

from relaxor import svgplot
from relaxor.svgplot import _fmt, _points, dual_phase_plane_svg, time_series_svg

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
