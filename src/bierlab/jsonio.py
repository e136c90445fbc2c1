"""JSON file formats.

Complex: {"m": int, "facets": [[int, ...], ...]} with 1-based vertices,
facet lists sorted.  Multicomplex: {"c": [int, ...],
"max_monomials": [[int, ...], ...]}.  These are the interchange formats of
the command-line tool.
"""

from __future__ import annotations

import json

from .complexes import MAX_GROUND, Complex, make_complex
from .errors import InvalidInput, ResourceLimit
from .multicomplexes import Multicomplex, make_multicomplex


def _int(x) -> int:
    """A JSON integer as is; ``int`` would also take 2.7, true and "2"."""
    if type(x) is not int:
        raise InvalidInput(f"expected an integer, got {json.dumps(x)}")
    return x


def complex_to_dict(k: Complex) -> dict:
    return {"m": k.m, "facets": [list(f) for f in k.facet_sets()]}


def complex_from_dict(d: dict) -> Complex:
    try:
        m = _int(d["m"])
        facets = [[_int(v) for v in f] for f in d["facets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad complex JSON: {exc}") from exc
    if m > MAX_GROUND:
        raise ResourceLimit(f"ground set [{m}] is too large; complexes need m <= {MAX_GROUND}")
    for f in facets:
        for v in f:
            if not 1 <= v <= m:
                raise InvalidInput(f"vertex {v} outside ground set [{m}]")
    return make_complex(m, facets)


def multicomplex_from_dict(d: dict) -> Multicomplex:
    try:
        c = [_int(x) for x in d["c"]]
        gens = [[_int(x) for x in a] for a in d["max_monomials"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad multicomplex JSON: {exc}") from exc
    return make_multicomplex(c, gens)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise InvalidInput(f"{path} is not a JSON file: {exc}") from exc


def load_complex(path: str) -> Complex:
    return complex_from_dict(load_json(path))


def load_multicomplex(path: str) -> Multicomplex:
    return multicomplex_from_dict(load_json(path))


def dump_json(data, path: str | None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InvalidInput(f"cannot write {path}: {exc.strerror}") from exc
