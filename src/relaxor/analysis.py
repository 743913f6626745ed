"""Extremum detection and oscillation-pattern classification.

The taxonomy: on a singular periodic orbit each prey is monotone on one
slow hyperplane, so aligned prey extrema can sit only at the jump points,
and then only in antiphase (prey-1 max with prey-2 min at the upward jump
and vice versa at the downward jump).  The predator can have jump-point
extrema too, but only minima.  This yields three synchronization
patterns: prey-prey antiphase alone, predator-prey-prey (predator minima
at both jumps; both jump predator levels above 1), and an alternating
predator/prey-2 pattern (both jump predator levels between r and 1).
Orientation is judged from the time offsets between predator peaks and
the neighboring prey peaks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterDomainError
from .model import Params
from .orbit import JumpPair, SingularOrbit
from .simulate import detect_jump_events

__all__ = [
    "Extremum", "ExtremaList", "SyncLabel", "Orientation", "SyncClass",
    "find_extrema", "classify_synchronization", "classify_orientation",
    "effective_jump_pair", "classify", "classification_report",
]

_VARS = ("p1", "p2", "z")


class SyncLabel(enum.Enum):
    PREY_PREY_ANTIPHASE = "PreyPreyAntiphase"
    PREDATOR_PREY_PREY = "PredatorPreyPrey"
    PREDATOR_PREY2_ALTERNATING = "PredatorPrey2Alternating"
    UNCLASSIFIED = "Unclassified"


class Orientation(enum.Enum):
    CLOCKWISE = "Clockwise"
    COUNTERCLOCKWISE = "Counterclockwise"
    NEITHER = "Neither"


@dataclass(frozen=True)
class Extremum:
    time: float
    value: float
    kind: str                 # "max" or "min"
    location: str             # "interior" or "at-jump"
    jump_direction: str | None = None  # "up"/"down" when at a jump


@dataclass
class ExtremaList:
    """Per-variable extrema plus the timing context they were found in."""

    entries: dict[str, list[Extremum]]
    jump_times: list[tuple[float, str]]
    align_tol: float
    period: float | None = None  # set for periodic (singular-orbit) input

    def of(self, var: str, kind: str | None = None) -> list[Extremum]:
        items = self.entries[var]
        return items if kind is None else [e for e in items if e.kind == kind]

    def at_jump(self, var: str, direction: str) -> list[Extremum]:
        return [e for e in self.entries[var]
                if e.location == "at-jump" and e.jump_direction == direction]


def _alternation_cleanup(items: list[Extremum]) -> list[Extremum]:
    """Keep kinds strictly alternating, dropping the weaker duplicate."""
    out: list[Extremum] = []
    for e in sorted(items, key=lambda e: e.time):
        if out and out[-1].kind == e.kind:
            prev = out[-1]
            better = e.value > prev.value if e.kind == "max" else e.value < prev.value
            # an at-jump tag wins over an interior duplicate at equal value
            if better or (e.location == "at-jump" and prev.location == "interior"
                          and e.value == prev.value):
                out[-1] = e
        else:
            out.append(e)
    return out


def _refine_parabolic(t: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1."""
    t0, t1, t2 = t[i - 1], t[i], t[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
    if denom == 0.0:
        return float(t1), float(y1)
    a = (t2 * (y1 - y0) + t1 * (y0 - y2) + t0 * (y2 - y1)) / denom
    b = (t2 ** 2 * (y0 - y1) + t1 ** 2 * (y2 - y0) + t0 ** 2 * (y1 - y2)) / denom
    if a == 0.0:
        return float(t1), float(y1)
    tv = -b / (2.0 * a)
    if not (min(t0, t2) <= tv <= max(t0, t2)):
        return float(t1), float(y1)
    c = y1 - a * t1 ** 2 - b * t1
    return float(tv), float(a * tv ** 2 + b * tv + c)


def _turns(y: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Slope signs of the samples ``y``, and the samples where they flip.

    Sample i turns where the slopes on either side of it have opposite
    nonzero signs.
    """
    sign = np.sign(np.diff(y))
    return sign, (np.flatnonzero(sign[:-1] * sign[1:] < 0.0) + 1).tolist()


def _normalize_jumps(jump_times) -> list[tuple[float, str]]:
    out = []
    for item in jump_times:
        if hasattr(item, "time"):
            out.append((float(item.time), item.direction))
        else:
            t, direction = item
            out.append((float(t), direction))
    return sorted(out)


def find_extrema(source, jump_times=None, align_tol: float | None = None) -> ExtremaList:
    """Locate extrema of p1, p2, z with jump-point tagging.

    ``source`` is a Trajectory or SingularOrbit.  Interior extrema come
    from sign changes of the sampled derivative, found in one numpy pass
    per variable and refined parabolically;
    extrema within ``align_tol`` of a jump time are tagged "at-jump".
    For singular orbits the segment seams are checked directly: a slope
    sign change across a jump is an extremum exactly at the jump time.

    The default ``align_tol`` is 1e-3 of the period for singular orbits
    and five times eps for trajectories (jump sharpness scales with eps);
    a given one must be finite and >= 0 (else ParameterDomainError).

    Raises InsufficientDataError when the input does not cover at least
    one full period (two jump events), or when a slow segment of a
    singular orbit has fewer than the two samples its seam slopes need.
    """
    if align_tol is not None and not 0.0 <= align_tol < np.inf:
        raise ParameterDomainError(f"require finite align_tol >= 0, got {align_tol}")
    times = np.asarray(source.times, dtype=float)
    states = np.asarray(source.states, dtype=float)
    periodic = isinstance(source, SingularOrbit)
    if periodic:
        for segment, t in (("q = 1", source.t_m1), ("q = 0", source.t_m0)):
            if len(t) < 2:
                raise InsufficientDataError(
                    f"the {segment} segment has {len(t)} sample; the slopes at "
                    "the jump seams need at least two on each slow segment")

    explicit = jump_times is not None
    if not explicit:
        if periodic:
            jump_times = source.jump_times()
        else:
            jump_times = detect_jump_events(source)
    jumps = _normalize_jumps(jump_times)
    # an explicitly empty jump list means a deliberately jump-free analysis
    # (pure slow-segment data); otherwise one full period is required
    if (jumps or not explicit) and len(jumps) < 2:
        raise InsufficientDataError(
            "need at least two trait jumps (one full period) to analyze extrema")

    period = source.period if periodic else None
    if align_tol is None:
        if periodic:
            align_tol = 1e-3 * source.period
        else:
            align_tol = 5.0 * source.config.eps

    entries: dict[str, list[Extremum]] = {}
    for k, var in enumerate(_VARS):
        y = states[:, k]
        found: list[Extremum] = []

        if periodic:
            # corner extrema exactly at the jumps, using the slopes of the
            # adjoining segments (cyclically for the jump at t = 0)
            n = len(times)
            for tj, direction in jumps:
                if tj >= source.period - 1e-12:
                    continue  # same point as t = 0
                if tj <= times[0] + 1e-12:
                    left = (y[n - 1] - y[n - 2]) / (times[n - 1] - times[n - 2])
                    right = (y[1] - y[0]) / (times[1] - times[0])
                    yv = y[0]
                else:
                    j = int(np.searchsorted(times, tj + 1e-12))
                    left = (y[j - 1] - y[j - 2]) / (times[j - 1] - times[j - 2])
                    right = (y[j + 1] - y[j]) / (times[j + 1] - times[j])
                    yv = y[j - 1]
                if left * right < 0.0:
                    found.append(Extremum(float(tj), float(yv),
                                          "max" if left > 0 else "min",
                                          "at-jump", direction))

        sign, turns = _turns(y)
        for i in turns:
            tv, yv = _refine_parabolic(times, y, i)
            kind = "max" if sign[i - 1] > 0 else "min"
            if not jumps:
                found.append(Extremum(float(tv), float(yv), kind, "interior"))
                continue
            gaps = [abs(tv - tj) for tj, _ in jumps]
            nearest = int(np.argmin(gaps))
            if periodic and gaps[nearest] <= max(align_tol,
                                                 2.0 * (times[i + 1] - times[i - 1])):
                continue  # the seam handler above owns this one
            if gaps[nearest] <= align_tol:
                found.append(Extremum(float(tv), float(yv), kind, "at-jump",
                                      jumps[nearest][1]))
            else:
                found.append(Extremum(float(tv), float(yv), kind, "interior"))
        entries[var] = _alternation_cleanup(found)

    return ExtremaList(entries=entries, jump_times=jumps,
                       align_tol=float(align_tol), period=period)


def effective_jump_pair(events, p: Params) -> JumpPair:
    """Average jump coordinates out of detected trait-crossing events.

    Trajectory analogue of the singular jump pair: mean slow coordinates
    over the up- and down-crossings, with travel times taken from mean
    crossing intervals.  Used to feed regime checks for eps > 0 runs.
    """
    ups = [e for e in events if e.direction == "up"]
    downs = [e for e in events if e.direction == "down"]
    if not ups or not downs:
        raise InsufficientDataError("need both an up and a down trait crossing")
    a = np.mean([e.slow_state() for e in ups], axis=0)
    b = np.mean([e.slow_state() for e in downs], axis=0)
    up_times = np.array([e.time for e in ups])
    down_times = np.array([e.time for e in downs])
    period = None
    for series in (up_times, down_times):
        if len(series) >= 2:
            period = float(np.mean(np.diff(series)))
            break
    if period is None:
        period = 2.0 * abs(float(down_times[0] - up_times[0]))
    # mean up -> following-down interval; falls back to a half period when
    # the series ends on an up crossing
    forward = [np.min(later - t) for t in up_times
               if len(later := down_times[down_times > t])]
    t1 = float(np.mean(forward)) if forward else 0.5 * period
    t1 = min(max(t1, 1e-6), max(period - 1e-6, 1e-6))
    return JumpPair(p1a=float(a[0]), p2a=float(a[1]), za=float(a[2]),
                    p1b=float(b[0]), p2b=float(b[1]), zb=float(b[2]),
                    t0=max(period - t1, 1e-6), t1=t1)


@dataclass
class SyncClass:
    """Synchronization label, orientation, and the evidence behind them."""

    label: SyncLabel
    orientation: Orientation
    prey_prey_antiphase: bool
    predator_min_at_jumps: bool
    jump_extrema: dict = field(default_factory=dict)
    orientation_votes: dict = field(default_factory=dict)


def classify_synchronization(ex: ExtremaList, j: JumpPair, p: Params) -> SyncClass:
    """Assign the synchronization pattern implied by the jump extrema.

    Prey-prey antiphase requires prey extrema of opposite kinds at both
    jumps.  Predator-prey-prey additionally requires predator minima at
    both jumps (predator levels above 1 there).  The alternating
    predator/prey-2 pattern requires both jump predator levels strictly
    between r and 1, predator minima at both jumps, and prey-2 aligned in
    phase at the upward jump and in antiphase at the downward one.
    The orientation and its votes are those of ``classify_orientation``.
    """
    kinds = {var: {d: {e.kind for e in ex.at_jump(var, d)} for d in ("up", "down")}
             for var in _VARS}
    p1_up, p1_down = kinds["p1"]["up"], kinds["p1"]["down"]
    p2_up, p2_down = kinds["p2"]["up"], kinds["p2"]["down"]
    z_up, z_down = kinds["z"]["up"], kinds["z"]["down"]

    antiphase = (p1_up == {"max"} and p2_up == {"min"}
                 and p1_down == {"min"} and p2_down == {"max"})
    z_min_both = z_up == {"min"} and z_down == {"min"}

    label = SyncLabel.UNCLASSIFIED
    if antiphase and z_min_both and j.za > 1.0 and j.zb > 1.0:
        label = SyncLabel.PREDATOR_PREY_PREY
    elif antiphase:
        label = SyncLabel.PREY_PREY_ANTIPHASE
    elif (z_min_both and p2_up == {"min"} and p2_down == {"max"}
          and p.r < j.za < 1.0 and p.r < j.zb < 1.0):
        label = SyncLabel.PREDATOR_PREY2_ALTERNATING

    orientation, votes = _orientation_votes(ex, None)
    jump_table = {var: {d: sorted(k) for d, k in by_dir.items()}
                  for var, by_dir in kinds.items()}
    return SyncClass(label=label, orientation=orientation,
                     prey_prey_antiphase=antiphase,
                     predator_min_at_jumps=z_min_both,
                     jump_extrema=jump_table, orientation_votes=votes)


def _peak_gaps(z_peaks: np.ndarray, prey_peaks: np.ndarray, period: float | None):
    """(previous-prey-peak gap, next-prey-peak gap) for each predator peak."""
    gaps = []
    for tz in z_peaks:
        if period is not None:
            rel = np.sort((prey_peaks - tz) % period)
            nxt = rel[0] if len(rel) else np.nan
            prev = period - rel[-1] if len(rel) else np.nan
        else:
            later = prey_peaks[prey_peaks > tz]
            earlier = prey_peaks[prey_peaks < tz]
            nxt = later[0] - tz if len(later) else np.nan
            prev = tz - earlier[-1] if len(earlier) else np.nan
        if np.isfinite(nxt) and np.isfinite(prev):
            gaps.append((float(prev), float(nxt)))
    return gaps


def _gap_votes(gaps, align_tol: float) -> dict:
    counts = {"clockwise": 0, "counterclockwise": 0, "neither": 0}
    for prev, nxt in gaps:
        if abs(nxt - prev) <= align_tol:
            counts["neither"] += 1
        elif nxt < prev:
            counts["clockwise"] += 1
        else:
            counts["counterclockwise"] += 1
    winners = [k for k, v in counts.items() if gaps and v == max(counts.values())]
    counts["verdict"] = winners[0] if len(winners) == 1 else (
        "neither" if gaps else None)
    counts["mean_gap_prev"] = float(np.mean([g[0] for g in gaps])) if gaps else None
    counts["mean_gap_next"] = float(np.mean([g[1] for g in gaps])) if gaps else None
    return counts


def classify_orientation(ex: ExtremaList, align_tol: float | None = None) -> Orientation:
    """Judge cycle orientation from predator-peak timing.

    For each predator peak, the time gap to the nearest prey peak after
    it is compared with the gap to the nearest prey peak before it: a
    smaller forward gap means the predator peaks just before the prey (a
    clockwise cycle); a smaller backward gap is the familiar order in
    which the prey peaks first (counterclockwise); gaps equal within
    ``align_tol`` put the predator peak mid-way between the prey peaks
    (neither).  The verdict is the majority over predator peaks, with
    ties resolved to neither.  Peak sequences of both prey together feed
    the verdict; ``classify_synchronization`` reports the votes, per prey
    (prey 1 first) and combined, as ``SyncClass.orientation_votes``.

    Requires at least two predator peaks (periodic inputs wrap around, so
    one period suffices there).
    """
    return _orientation_votes(ex, align_tol)[0]


def _orientation_votes(ex: ExtremaList, align_tol: float | None) -> tuple[Orientation, dict]:
    """The orientation of ``classify_orientation`` and the votes behind it."""
    if align_tol is None:
        align_tol = ex.align_tol
    z_peaks = np.array([e.time for e in ex.of("z", "max")])
    effective = len(z_peaks) * (2 if ex.period is not None else 1)
    if effective < 2:
        raise InsufficientDataError("need at least two predator peaks")

    votes: dict[str, dict] = {}
    peak_sets = {prey: np.array([e.time for e in ex.of(prey, "max")])
                 for prey in ("p1", "p2")}
    for prey, prey_peaks in peak_sets.items():
        votes[prey] = _gap_votes(_peak_gaps(z_peaks, prey_peaks, ex.period), align_tol)
    combined = np.sort(np.concatenate([peak_sets["p1"], peak_sets["p2"]]))
    votes["combined"] = _gap_votes(_peak_gaps(z_peaks, combined, ex.period), align_tol)

    mapping = {"clockwise": Orientation.CLOCKWISE,
               "counterclockwise": Orientation.COUNTERCLOCKWISE,
               "neither": Orientation.NEITHER, None: Orientation.NEITHER}
    return mapping[votes["combined"]["verdict"]], votes


def classify(source, align_tol: float | None = None) -> tuple[SyncClass, ExtremaList]:
    """Classify a SingularOrbit or a Trajectory: its pattern and its extrema.

    An orbit is judged against its own jump pair.  A trajectory's jumps are
    its detected trait crossings, and it is judged against their
    ``effective_jump_pair``.  ``align_tol`` is that of ``find_extrema``.
    """
    if isinstance(source, SingularOrbit):
        ex = find_extrema(source, align_tol=align_tol)
        return classify_synchronization(ex, source.jumps, source.params), ex
    events = detect_jump_events(source)
    ex = find_extrema(source, events, align_tol=align_tol)
    return classify_synchronization(ex, effective_jump_pair(events, source.params),
                                    source.params), ex


def classification_report(sync: SyncClass, ex: ExtremaList) -> dict:
    """JSON-ready report: each record's own fields in order (enums as values), jump times."""
    return {
        "classification": {**vars(sync), "label": sync.label.value,
                           "orientation": sync.orientation.value},
        "extrema": {var: [vars(e).copy() for e in ex.entries[var]] for var in _VARS},
        "jump_times": [{"time": t, "direction": d} for t, d in ex.jump_times],
        "align_tol": ex.align_tol,
        "period": ex.period,
    }

