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


def _sealed(kind: str, params, config: dict, outcome: dict):
    """(make_report's dict, dump_report's text of it before config_hash
    and generated_at are added): the hash and the text from one walk."""
    report = {"kind": kind, "tool_version": __version__, "params": params.to_dict(),
              "config": config, "outcome": outcome}
    canonical, text = _walk(report, 0)
    report["config_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report, text


# make_report and dump_report are the plain forms of report_text, which
# writes every report file; tests compare against them and the benchmark's
# tracer wraps them by name, so they stay without a caller here.
def make_report(kind: str, params, config: dict, outcome: dict) -> dict:
    return _sealed(kind, params, config, outcome)[0]


def report_text(kind: str, params, config: dict, outcome: dict) -> str:
    """dump_report(make_report(kind, params, config, outcome)), from one walk."""
    report, text = _sealed(kind, params, config, outcome)
    # the two keys sort between the body's first two, "config" and "kind";
    # nothing nested starts a line at this depth
    added = "".join(f'\n  "{k}": "{report[k]}",' for k in ("config_hash", "generated_at"))
    return text.replace(',\n  "kind": ', "," + added + '\n  "kind": ', 1) + "\n"


# With indent None, encode() runs in C.  Encoded strings never hold a raw
# newline, so every newline it writes is a separator: dropping them
# gives canonical_json, and the indented layout puts its padding there.
_STRICT = json.JSONEncoder(sort_keys=True, separators=(",\n", ":\n"), allow_nan=False).encode
_CONTAINERS = (dict, list, tuple)


def _has_container(types) -> bool:
    return any(issubclass(t, _CONTAINERS) for t in types)


def _walk(obj, depth: int):
    """(canonical_json(obj), json.dumps(obj, sort_keys=True, indent=2) as
    nested at `depth`), from one encode call per flat container."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        text = _STRICT(obj)
        return text, text
    is_dict = isinstance(obj, dict)
    types = {type(v) for v in (obj.values() if is_dict else obj)}
    pad = "\n" + "  " * (depth + 1)
    flat = not _has_container(types)
    rows = (not (flat or is_dict) and all(issubclass(t, dict) for t in types) and all(obj)
            and not _has_container({type(v) for r in obj for v in r.values()}))
    if not (flat or rows):
        if is_dict:  # {k: 0} encodes as {<key>:\n0}, with json's coercion of k
            parts = [(_STRICT({k: 0})[1:-4], *_walk(v, depth + 1))
                     for k, v in sorted(obj.items())]
        else:
            parts = [(None, *_walk(v, depth + 1)) for v in obj]
        canonical = ",".join(c if k is None else f"{k}:{c}" for k, c, _ in parts)
        indented = ("," + pad).join(i if k is None else f"{k}: {i}" for k, _, i in parts)
        opener, closer = "{}" if is_dict else "[]"
        return opener + canonical + closer, opener + pad + indented + pad[:-2] + closer
    text = _STRICT(obj)
    # flat: one item per line; rows of flat dicts: also open each row
    # boundary, the only place "}," meets a newline
    inner = pad + "  " if rows else pad
    body = text[1:-1].replace(":\n", ": ").replace(",\n", "," + inner)
    if rows:
        body = "{" + inner + body[1:-1].replace(
            "}," + inner + "{", pad + "}," + pad + "{" + inner) + pad + "}"
    return text.replace("\n", ""), text[0] + pad + body + pad[:-2] + text[-1]


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
