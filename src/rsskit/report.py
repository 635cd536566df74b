"""Machine-readable report files.

Reports embed the tool version, the effective parameters and
configuration, and a hash over the canonical payload so campaigns can be
reproduced and CI can diff them.  The generation timestamp is excluded
from the hash.
"""
from __future__ import annotations

import hashlib
import json
import time

from . import __version__


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def make_report(kind: str, params, config: dict, outcome: dict) -> dict:
    body = {
        "kind": kind,
        "tool_version": __version__,
        "params": params.to_dict(),
        "config": config,
        "outcome": outcome,
    }
    body["config_hash"] = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    body["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return body


_CONTAINERS = (dict, list, tuple)
_ENCODERS = {}


def _encoder(depth: int) -> json.JSONEncoder:
    # one item per line at `depth`; with indent None, encode() runs in C
    if depth not in _ENCODERS:
        _ENCODERS[depth] = json.JSONEncoder(
            sort_keys=True, separators=(",\n" + "  " * depth, ": ")
        )
    return _ENCODERS[depth]


def _has_container(types) -> bool:
    return any(issubclass(t, _CONTAINERS) for t in types)


def _encode(obj, depth: int) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) as nested at `depth`.
    Encoded strings never hold a raw newline, so every newline below is
    layout."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _encoder(depth).encode(obj)
    is_dict = isinstance(obj, dict)
    types = {type(v) for v in (obj.values() if is_dict else obj)}
    pad = "\n" + "  " * (depth + 1)
    if not _has_container(types):
        body = _encoder(depth + 1).encode(obj)[1:-1]
    elif is_dict:
        # {k: 0} encodes as {<key>: 0}, with json's own coercion of the key
        body = ("," + pad).join(
            f"{_encoder(0).encode({k: 0})[1:-4]}: {_encode(v, depth + 1)}"
            for k, v in sorted(obj.items())
        )
    elif (
        all(issubclass(t, dict) for t in types)
        and all(obj)
        and not _has_container({type(v) for r in obj for v in r.values()})
    ):
        # rows of flat dicts: one call, then open each row boundary
        inner = "\n" + "  " * (depth + 2)
        body = "{" + inner + _encoder(depth + 2).encode(obj)[2:-2].replace(
            "}," + inner + "{", pad + "}," + pad + "{" + inner
        ) + pad + "}"
    else:
        body = ("," + pad).join(_encode(v, depth + 1) for v in obj)
    opener, closer = ("{", "}") if is_dict else ("[", "]")
    return opener + pad + body + "\n" + "  " * depth + closer


def dump_report(report: dict) -> str:
    """Exactly json.dumps(report, sort_keys=True, indent=2) + "\\n"."""
    return _encode(report, 0) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report(report))
