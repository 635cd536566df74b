"""Trajectory CSV and plot-data files.

Format: header `t,x_f,v_f,x_r,v_r,a_r,mode`, decimal floats at 9
significant digits, UTF-8, `#` comment lines.  CSV keeps golden files
human-inspectable and diffable.
"""
from __future__ import annotations

from math import inf, isfinite

from .core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample, write_text
from .errors import ConfigError, TrajectoryFormatError
from .rule import margin

HEADER = "t,x_f,v_f,x_r,v_r,a_r,mode"
_MODES = (AC, BC)


def write_trajectory(traj: Trajectory, path) -> None:
    rows = [
        "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s\n" % (t, x_f, v_f, x_r, v_r, a_r, mode)
        for t, (x_f, v_f, x_r, v_r), a_r, mode in traj.samples
    ]
    write_text(path, HEADER + "\n" + "".join(rows))


def read_trajectory(path, params: RssParams) -> Trajectory:
    """Parse a trajectory CSV; rejects NaN/Inf, negative velocities,
    unknown modes, and non-increasing timestamps."""
    samples = []
    prev_t = -inf
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise TrajectoryFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            if not header_seen:
                if line != HEADER:
                    raise TrajectoryFormatError(
                        f"{path}:{lineno}: expected header {HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            fields = line.split(",")
            try:  # a row of other than seven fields fails the unpacking
                t, x_f, v_f, x_r, v_r, a_r, mode = fields
                t, x_f, v_f, x_r, v_r, a_r, mode = (
                    float(t), float(x_f), float(v_f), float(x_r), float(v_r), float(a_r), mode.strip())
            except ValueError:
                mode = None
            # one range test per row, written so that NaN fails too
            if not (mode in _MODES and prev_t < t < inf
                    and -inf < x_f < inf and -inf < x_r < inf and -inf < a_r < inf
                    and 0 <= v_f < inf and 0 <= v_r < inf):
                raise TrajectoryFormatError(f"{path}:{lineno}: {_row_error(fields)}")
            prev_t = t  # the row passed every check ScenarioState would repeat
            state = tuple.__new__(ScenarioState, (x_f, v_f, x_r, v_r))
            samples.append(tuple.__new__(TrajectorySample, (t, state, a_r, mode)))
    if not header_seen:
        raise TrajectoryFormatError(f"{path}: missing header")
    if not samples:
        raise TrajectoryFormatError(f"{path}: no samples")
    return Trajectory._trusted(tuple(samples), params)


def _row_error(fields) -> str:
    """The first fault of a row that failed read_trajectory's range test."""
    if len(fields) != 7:
        return f"expected 7 fields, got {len(fields)}"
    try:
        values = [float(f) for f in fields[:6]]
    except ValueError as exc:
        return str(exc)
    bad, mode = [v for v in values if not isfinite(v)], fields[6].strip()
    return (f"non-finite value {bad[0]!r}" if bad
            else "negative velocity" if values[2] < 0 or values[4] < 0
            else f"unknown mode {mode!r}" if mode not in _MODES
            else "timestamps must be strictly increasing")


def write_metric_csv(traj: Trajectory, path, margins=None) -> None:
    """Plot data: per-sample margin, gap, and velocities (rendering is up
    to the caller).  margins, one per sample, are taken as given when
    passed, e.g. from an audit's per_sample."""
    if margins is None:
        margins = [margin(traj.params, state) for _, state, _, _ in traj.samples]
    elif len(margins) != len(traj.samples):
        raise ConfigError(f"got {len(margins)} margins for {len(traj.samples)} samples")
    rows = [
        "%.9g,%.9g,%.9g,%.9g,%.9g\n" % (t, m, x_f - x_r, v_r, v_f)
        for (t, (x_f, v_f, x_r, v_r), _, _), m in zip(traj.samples, margins)
    ]
    write_text(path, "t,margin,gap,v_r,v_f\n" + "".join(rows))
