"""Trajectory CSV and plot-data files.

Format: header `t,x_f,v_f,x_r,v_r,a_r,mode`, decimal floats at 9
significant digits, UTF-8, `#` comment lines.  CSV keeps golden files
human-inspectable and diffable.
"""
from __future__ import annotations

import math

from .core import AC, BC, RssParams, ScenarioState, Trajectory, TrajectorySample
from .errors import TrajectoryFormatError
from .rule import margin

HEADER = "t,x_f,v_f,x_r,v_r,a_r,mode"
_MODES = (AC, BC)


def write_trajectory(traj: Trajectory, path) -> None:
    rows = [
        "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s\n"
        % (s.t, st.x_f, st.v_f, st.x_r, st.v_r, s.a_r, s.mode)
        for s in traj.samples
        for st in (s.state,)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "\n" + "".join(rows))


def read_trajectory(path, params: RssParams) -> Trajectory:
    """Parse a trajectory CSV; rejects NaN/Inf, negative velocities,
    unknown modes, and non-increasing timestamps."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise TrajectoryFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != HEADER:
                    raise TrajectoryFormatError(
                        f"{path}:{lineno}: expected header {HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 7:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: expected 7 fields, got {len(fields)}"
                )
            try:
                t, x_f, v_f, x_r, v_r, a_r = (float(f) for f in fields[:6])
            except ValueError as exc:
                raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from exc
            for val in (t, x_f, v_f, x_r, v_r, a_r):
                if not math.isfinite(val):
                    raise TrajectoryFormatError(
                        f"{path}:{lineno}: non-finite value {val!r}"
                    )
            if v_f < 0 or v_r < 0:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: negative velocity"
                )
            mode = fields[6].strip()
            if mode not in _MODES:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: unknown mode {mode!r}"
                )
            if samples and t <= samples[-1].t:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: timestamps must be strictly increasing"
                )
            samples.append(
                TrajectorySample(t, ScenarioState(x_f, v_f, x_r, v_r), a_r, mode)
            )
    if not header_seen:
        raise TrajectoryFormatError(f"{path}: missing header")
    if not samples:
        raise TrajectoryFormatError(f"{path}: no samples")
    return Trajectory(tuple(samples), params)


def write_metric_csv(traj: Trajectory, path) -> None:
    """Plot data: per-sample margin, gap, and velocities (rendering is up
    to the caller)."""
    params = traj.params
    rows = [
        "%.9g,%.9g,%.9g,%.9g,%.9g\n"
        % (s.t, margin(params, st), st.gap, st.v_r, st.v_f)
        for s in traj.samples
        for st in (s.state,)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,margin,gap,v_r,v_f\n" + "".join(rows))
