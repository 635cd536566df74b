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
from itertools import chain, repeat

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
    nested at `depth`), from one encode call per flat container or column."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        text = _STRICT(obj)
        return text, text
    is_dict = isinstance(obj, dict)
    types = set(map(type, obj.values() if is_dict else obj))
    pad = "\n" + "  " * (depth + 1)
    if not _has_container(types):  # one item per line
        text = _STRICT(obj)
        body = text[1:-1].replace(":\n", ": ").replace(",\n", "," + pad)
        return text.replace("\n", ""), text[0] + pad + body + pad[:-2] + text[-1]
    if types == {dict} and not is_dict and (columns := _columns(obj, pad)):
        return columns
    if is_dict:  # {k: 0} encodes as {<key>:\n0}, with json's coercion of k
        parts = [(_STRICT({k: 0})[1:-4], *_walk(v, depth + 1)) for k, v in sorted(obj.items())]
    else:
        parts = [(None, *_walk(v, depth + 1)) for v in obj]
    canonical = ",".join(c if k is None else f"{k}:{c}" for k, c, _ in parts)
    indented = ("," + pad).join(i if k is None else f"{k}: {i}" for k, _, i in parts)
    opener, closer = "{}" if is_dict else "[]"
    return opener + canonical + closer, opener + pad + indented + pad[:-2] + closer


def _columns(rows, pad: str):
    """_walk's texts of a list of exact dicts that share one set of str keys
    and hold no container, from one encode per key; None for any other."""
    if (set(map(type, rows[0])) != {str} or set(map(len, rows)) != {len(rows[0])}
            or _has_container(set(map(type, chain.from_iterable(map(dict.values, rows)))))):
        return None
    keys = sorted(rows[0])
    try:
        columns = [list(map(dict.__getitem__, rows, repeat(k))) for k in keys]
        tokens = [_STRICT(column)[1:-1].split(",\n") for column in columns]
    except (KeyError, ValueError, TypeError):  # another key set of that size, or
        return None  # a value json refuses: the generic walk raises it in row order
    inner, texts = pad + "  ", []
    for opener, comma, colon, close in (("{", ",", ":", "},"),
                                        (pad + "{" + inner, "," + inner, ": ", pad + "},")):
        # per key a head and its token, then the row's close; the last close's comma goes
        heads = [(comma if i else opener) + _STRICT(k) + colon for i, k in enumerate(keys)]
        streams = [s for head, column in zip(heads, tokens) for s in (repeat(head), column)]
        texts.append("".join(chain.from_iterable(zip(*streams, repeat(close))))[:-1])
    return "[" + texts[0] + "]", "[" + texts[1] + pad[:-2] + "]"


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
