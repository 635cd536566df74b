"""Shared domain types: parameters, instantaneous states, trajectories.

Units are SI throughout (m, s, m/s^2).  Braking rates are stored as
positive magnitudes and applied as negative accelerations.  All types are
immutable; the per-step ones are named tuples, equal to plain value tuples.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .errors import (
    ConfigError,
    DomainError,
    EmptyTrajectory,
    Negative,
    NonFinite,
    NonPositive,
    OrderViolation,
)

AC = "AC"
BC = "BC"

_REQUIRED_PARAM_KEYS = ("rho", "a_max", "a_brake_min", "a_brake_max")
_PARAM_KINDS = dict.fromkeys(_REQUIRED_PARAM_KEYS + ("vehicle_length",), float)
_NOUNS = {float: "a finite number", int: "an integer", bool: "a boolean",
          tuple: "null or a list of two finite numbers"}


@dataclass(frozen=True)
class RssParams:
    """Static scenario parameters.

    rho          -- max response time of the rear vehicle [s]
    a_max        -- max forward acceleration of the rear vehicle [m/s^2]
    a_brake_min  -- max comfortable braking rate of the rear vehicle [m/s^2]
    a_brake_max  -- max emergency braking rate of the front vehicle [m/s^2]
    vehicle_length -- collision offset; 0 treats vehicles as points [m]
    """

    rho: float
    a_max: float
    a_brake_min: float
    a_brake_max: float
    vehicle_length: float = 0.0

    def __post_init__(self) -> None:
        for key, value in self.to_dict().items():
            # read_record's type policy, but a NaN or infinite float is NonFinite
            value = read_value("parameter", key, float, value, lambda v: True)
            object.__setattr__(self, key, value)
            if not math.isfinite(value):
                raise NonFinite(f"{key} must be finite, got {value!r}")
        if not self.rho > 0:
            raise NonPositive(f"rho must be > 0, got {self.rho!r}")
        if not self.a_brake_min > 0:
            raise NonPositive(f"a_brake_min must be > 0, got {self.a_brake_min!r}")
        if not self.a_brake_min < self.a_brake_max:
            raise OrderViolation(
                "need a_brake_min < a_brake_max, got "
                f"{self.a_brake_min!r} >= {self.a_brake_max!r}"
            )
        if self.a_max < 0:
            raise Negative(f"a_max must be >= 0, got {self.a_max!r}")
        if self.vehicle_length < 0:
            raise Negative(f"vehicle_length must be >= 0, got {self.vehicle_length!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def validate_params(raw: dict) -> RssParams:
    """Build RssParams from a raw record (e.g. parsed JSON); a missing
    vehicle_length is 0.  A malformed record raises ConfigError, one that
    violates the parameter invariants the matching ParamError subclass."""
    return RssParams(**read_record(raw, "parameter", _PARAM_KINDS, _REQUIRED_PARAM_KEYS))


def read_record(raw, what: str, kinds: dict, required=()) -> dict:
    """The values of a JSON config record, each checked against its kind.

    kinds maps every allowed key to float (a number, never a boolean, that
    a float holds finitely; returned as a float), int or bool (exactly that
    JSON type) or tuple (null, or a list of two such numbers; returned as a
    tuple).  A refusal raises ConfigError naming the record, key and value.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} record must be a mapping, got {type(raw).__name__}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError(f"missing {what} keys: {', '.join(missing)}")
    unknown = set(raw).difference(kinds)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(map(str, unknown)))}")
    return {key: read_value(what, key, kinds[key], value) for key, value in raw.items()}


def read_value(what: str, key: str, kind: type, value, passes=lambda v: False):
    """One value of a record, checked against its kind as read_record
    describes (a pair may be a tuple; a float for which passes holds is left
    to the caller's range checks), as a float or tuple where its kind says."""
    pair = type(value) in (list, tuple) and len(value) == 2
    number = lambda v: _finite(v) or (isinstance(v, float) and passes(v))
    if kind is float and number(value):
        return float(value)
    if kind is tuple and pair and all(map(number, value)):
        return tuple(map(float, value))
    if kind is float or type(value) is not (type(None) if kind is tuple else kind):
        raise ConfigError(f"{what} {key!r} is not {_NOUNS[kind]}: {shown(value)}")
    return value


def shown(value) -> str:
    """repr(value), or a stand-in for an int too long for repr to write."""
    try:
        return repr(value)
    except ValueError:
        return "a value too long to write out"


_NUMBER = (int, float)  # bools refused: the one type test of every field that holds a number


def _finite(v) -> bool:  # compared: math.isfinite raises on an int too big for a float
    return isinstance(v, _NUMBER) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def lazy_module(name: str):
    """sys.modules[name], else a module that importlib's LazyLoader runs on
    its first attribute access, bound on its package as an import binds a
    submodule; one that cannot be found raises now."""
    if sys.modules.get(name) is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        if package:
            setattr(sys.modules[package], child, module)
    return sys.modules[name]


np = lazy_module("numpy")  # for the array engines; executed on their first call


def load_json(path, what: str):
    """Parse a JSON file; text that is not UTF-8 or not JSON raises
    ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot parse {what} file {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, as open(path, "w") would, but overwrite a
    file in place and then cut it to length: ext4 flushes a file truncated to 0
    on close.  A raise keeps only the bytes written; a pipe is never cut; no fsync."""
    data, done = memoryview(text.encode("utf-8")), 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        try:
            while done < len(data):
                done += os.write(fd, data[done:])
        finally:  # after a raise too, so a new head never keeps an old tail
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, done)
    finally:
        os.close(fd)


def load_params(path) -> RssParams:
    """Load parameters from a JSON file."""
    return validate_params(load_json(path, "parameter"))


class _StateFields(NamedTuple):  # a NamedTuple body may not define __new__
    x_f: float
    v_f: float
    x_r: float
    v_r: float


class ScenarioState(_StateFields):
    """Positions and velocities of both vehicles at one instant.

    x_f/v_f belong to the front vehicle (POV), x_r/v_r to the rear
    vehicle (SV), in the 1-D lane coordinate.  Positions are finite and
    velocities finite and nonnegative; the lane model has no reversing.
    """

    __slots__ = ()

    def __new__(cls, x_f, v_f, x_r, v_r):
        # _finite's test: an int or float, then not a bool; x * 0.0 and x - x are 0
        # if x is finite, else NaN, and x * 0.0 raises for an int too big for a float
        positions = None
        if isinstance(x_f, _NUMBER) and isinstance(v_f, _NUMBER) and isinstance(x_r, _NUMBER) and isinstance(v_r, _NUMBER):
            try:
                positions = x_f * 0.0 == x_f - x_f == x_r * 0.0 == x_r - x_r
                velocities = v_f * 0.0 <= v_f - v_f <= v_f and v_r * 0.0 <= v_r - v_r <= v_r
            except OverflowError:
                positions = None
        if positions is None or x_f is True or x_f is False or v_f is True or v_f is False or (
                x_r is True or x_r is False or v_r is True or v_r is False):
            raise DomainError(f"positions and velocities must be numbers a float holds, not booleans, got "
                              f"x_f={shown(x_f)}, v_f={shown(v_f)}, x_r={shown(x_r)}, v_r={shown(v_r)}")
        if not positions:
            raise DomainError(f"positions must be finite, got x_f={x_f!r}, x_r={x_r!r}")
        if not velocities:
            raise DomainError(f"velocities must be finite and >= 0, got v_f={v_f!r}, v_r={v_r!r}")
        return tuple.__new__(cls, (x_f, v_f, x_r, v_r))

    @classmethod
    def _make(cls, iterable):
        # the named-tuple _make, which _replace calls, would skip the checks
        return cls(*iterable)

    @property
    def gap(self) -> float:
        return self.x_f - self.x_r


class TrajectorySample(NamedTuple):
    """One recorded instant: time, state, SV acceleration, control mode."""

    t: float
    state: ScenarioState
    a_r: float
    mode: str = AC


@dataclass(frozen=True)
class Trajectory:
    """Timestamped sample sequence plus the parameters it was recorded under."""

    samples: tuple
    params: RssParams

    def __post_init__(self) -> None:
        if type(self.samples) not in (tuple, list) or not all(
                isinstance(s, TrajectorySample) for s in self.samples):
            raise DomainError("trajectory samples must be a tuple or list of TrajectorySamples")
        samples = tuple(self.samples)
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise EmptyTrajectory("trajectory must contain at least one sample")
        for i, s in enumerate(samples):
            if not (_finite(s.t) and _finite(s.a_r) and isinstance(s.state, ScenarioState)
                    and isinstance(s.mode, str) and s.mode in (AC, BC)):
                raise DomainError(f"sample {i} needs finite numbers t and a_r, a ScenarioState "
                                  f"and mode {AC!r} or {BC!r}, got {shown(s)}")
        for prev, cur in zip(samples, samples[1:]):
            if not cur.t > prev.t:
                raise DomainError(
                    f"timestamps must be strictly increasing: {prev.t!r} -> {cur.t!r}"
                )

    @classmethod
    def _trusted(cls, samples: tuple, params: RssParams) -> "Trajectory":
        """A Trajectory of samples known non-empty and in strictly increasing time."""
        traj = object.__new__(cls)
        object.__setattr__(traj, "samples", samples)
        object.__setattr__(traj, "params", params)
        return traj

    def __len__(self) -> int:
        return len(self.samples)

    def prefix(self, n: int) -> "Trajectory":
        samples = self.samples[:n]  # in order; the check refuses it only when empty
        return (Trajectory._trusted if samples else Trajectory)(samples, self.params)
