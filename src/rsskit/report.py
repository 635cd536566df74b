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


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report(report))
