"""Command-line surface.

Subcommands: complex | dual | bier | murai | murai-ideal | betti | golod |
faces | classify | cubical | census | verify.  Complexes and multicomplexes
travel as the JSON formats of ``bierlab.jsonio``; results print to stdout
or to ``--out``.

``COMMANDS`` is the whole surface: each subcommand names its handler, which
returns the JSON payload, and the options that handler reads.  A subcommand
takes only those options and ``COMMON``; ``OPTIONS`` declares each once.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from multiprocessing import Pool
from typing import Callable, NamedTuple

from . import cache as cachemod
from . import census as censusmod
from .complexes import canonical_key, drop_ghosts, format_key, is_flag, standard_complex
from .complexes import are_isomorphic, check_subset_sweep, truncation_sphere, vertices_of
from .cubical import (
    boundary_complex,
    cell_symbol,
    check_cubical_homology,
    cubical_homology,
    gw_partition_check,
    z_complex,
)
from .duality import alexander_dual, bier_sphere, classify_bier, reference_flag_sphere
from .errors import BierlabError, InvalidInput
from .facevectors import f_vector, gamma_vector, h_vector, is_dehn_sommerville, realize_gamma_as_flag_f
from .jsonio import complex_to_dict, dump_json, load_complex, load_multicomplex
from .multicomplexes import murai_face_ideal, murai_sphere, murai_vertex_labels
from .tor import QQ, FieldTag, check_koszul_oracle, golod_summary
from .tor import hochster_betti, koszul_betti_oracle, tor_products


def characteristic(text: str) -> FieldTag:
    """``--field``: refused while parsing, before any work, unless 0 or a prime."""
    try:
        return FieldTag(int(text))
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def positive_int(text: str) -> int:
    """``--jobs``: refused while parsing, before any work, unless at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


OPTIONS = {
    "--build": dict(required=True, help="builder spec, e.g. cycle:6, points:3,3, nerve-q23"),
    "--in": dict(dest="infile", required=True),
    "--m": dict(type=int, required=True),
    "--suite": dict(required=True,
                    help="suite name or 'all': " + ", ".join(sorted(censusmod.SUITES))),
    "--oracle": dict(action="store_true", help="also run the Koszul oracle and cross-check"),
    "--boundary": dict(action="store_true", help="emit the boundary cells"),
    "--homology": dict(action="store_true", help="reduced homology ranks"),
    "--gw": dict(action="store_true", help="run the partition check"),
    "--field": dict(type=characteristic, default=QQ,
                    help="coefficient field characteristic (0 = rationals)"),
    "--jobs": dict(type=positive_int, default=1, help="worker processes for census"),
    "--out": dict(help="write the JSON result here instead of stdout"),
    "--cache-dir": dict(help="result cache directory (default: $BIERLAB_CACHE)"),
    "--no-cache": dict(action="store_true", help="disable the cache"),
}
# every subcommand takes these; the cache flags are a deployment setting,
# like $BIERLAB_CACHE, even where a subcommand caches nothing
COMMON = ("--out", "--cache-dir", "--no-cache")


# Part of every cache key: raise it whenever a key or payload changes format or
# meaning, so records written before the change are never served.
CACHE_FORMAT = 3


def _cached(args, make_key, compute):
    """``compute()``, read from or written to the result cache when it is on;
    ``make_key`` runs only then, since a key can cost a canonical-form search."""
    cache_dir = cachemod.default_cache_dir() if args.cache_dir is None else args.cache_dir
    if args.no_cache or not cache_dir:
        return compute()
    key = f"v{CACHE_FORMAT}|{make_key()}"
    record = cachemod.cache_get(cache_dir, key)
    if record is not None:
        return record["value"]
    value = compute()
    cachemod.cache_put(cache_dir, key, {"value": value})
    return value


def _betti_payload(k, field_tag, run_oracle):
    betti = hochster_betti(k, field_tag)
    payload = {
        "field": field_tag.p,
        "betti": [[i, j, r] for (i, j), r in betti.items_sorted()],
    }
    if run_oracle:
        oracle = koszul_betti_oracle(k, field_tag)
        payload["oracle_betti"] = [[i, j, r] for (i, j), r in oracle.items_sorted()]
        payload["oracle_agrees"] = oracle.table == betti.table
    return payload


def _classify(args):
    k = load_complex(args.infile)
    sphere = drop_ghosts(bier_sphere(k))
    cls = classify_bier(k, sphere)
    payload = {"tags": list(cls.tags)}
    if cls.flag_kind is not None:
        ref = reference_flag_sphere(cls.flag_kind)
        iso = are_isomorphic(sphere, ref)
        payload["flag_family"] = {
            "family": cls.flag_kind.family,
            "n": cls.flag_kind.n,
            "reference": complex_to_dict(ref),
            "witness_isomorphism": list(iso.mapping) if iso else None,
        }
    if cls.golod_points is not None:
        ref = truncation_sphere(k.m, cls.golod_points)
        iso = are_isomorphic(sphere, ref)
        payload["golod_family"] = {
            "cuts": cls.golod_points,
            "truncation_nerve": complex_to_dict(ref),
            "witness_isomorphism": list(iso.mapping) if iso else None,
        }
    return payload


def _murai(args):
    mc = load_multicomplex(args.infile)
    payload = complex_to_dict(murai_sphere(mc))
    payload["vertex_labels"] = murai_vertex_labels(mc.c)
    return payload


def _murai_ideal(args):
    ideal = murai_face_ideal(load_multicomplex(args.infile))
    return {
        "variables": list(ideal.variables),
        "generators": [list(g) for g in ideal.generators],
        "generator_monomials": ideal.generator_strings(),
    }


def _betti(args):
    k = load_complex(args.infile)
    # refuse before the cache key, whose canonical form is the slow part
    check_subset_sweep(k)
    if args.oracle:
        check_koszul_oracle(k)
    return _cached(
        args,
        lambda: f"betti|{canonical_key(k)}|p={args.field.p}|oracle={args.oracle}",
        lambda: _betti_payload(k, args.field, args.oracle),
    )


def _golod(args):
    k = load_complex(args.infile)

    def compute():
        golod, min_non = golod_summary(k, args.field)
        witnesses = tor_products(k, args.field)
        payload = _betti_payload(k, args.field, False)
        payload["witnesses"] = [
            {
                "subset_a": list(vertices_of(w.subset_a)),
                "subset_b": list(vertices_of(w.subset_b)),
                "cochain_sizes": [w.size_a, w.size_b],
                "class_indices": [w.index_a, w.index_b],
            }
            for w in witnesses
        ]
        payload["product_golod"] = golod
        payload["min_non_golod"] = min_non
        return payload

    # witnesses name the input's own vertices, so the record is only
    # valid for this labeling (betti payloads carry no labels)
    return _cached(args, lambda: f"golod|{format_key(k.m, k.facets)}|p={args.field.p}", compute)


def _faces(args):
    k = load_complex(args.infile)
    gamma = gamma_vector(k)
    witness = realize_gamma_as_flag_f(gamma) if gamma is not None else None
    return {
        "f": list(f_vector(k)),
        "h": list(h_vector(k)),
        "gamma": list(gamma) if gamma is not None else None,
        "dehn_sommerville": is_dehn_sommerville(k),
        "flag": is_flag(k),
        "np_witness": complex_to_dict(witness)["facets"] if witness else None,
    }


def _cubical(args):
    k = load_complex(args.infile)
    # refuse before Z(K), the slow part
    if args.homology:
        check_cubical_homology(k)
    z = z_complex(k)
    target = boundary_complex(z) if args.boundary else z
    lines = [cell_symbol(c) for c in sorted(target.cells)]
    payload = {"m": k.m, "cells": lines, "dim": target.dim}
    if args.homology:
        payload["homology"] = cubical_homology(target, args.field.p)
    if args.gw:
        payload["gw"] = {"corners": 1 << k.m, "violations": len(gw_partition_check(k))}
    return payload


def _census_record_dict(row_and_field):
    row, field_tag = row_and_field
    return censusmod.sphere_record(row, field_tag).to_dict()


def _census(args):
    work = [(row, args.field) for row in censusmod._bier_spheres(args.m)]
    if args.jobs > 1:
        with Pool(args.jobs) as pool:
            records = pool.map(_census_record_dict, work)
    else:
        records = [_census_record_dict(w) for w in work]
    return {"m": args.m, "records": records}


def _verify(args):
    names = sorted(censusmod.SUITES) if args.suite == "all" else [args.suite]
    reports = [censusmod.verify(n) for n in names]
    return {"reports": [r.to_dict() for r in reports]}


class Command(NamedTuple):
    help: str
    handler: Callable  # parsed args -> JSON payload
    options: tuple  # the flags the handler reads, beyond COMMON
    status: Callable = lambda payload: 0  # exit status of a payload


COMMANDS = {
    "complex": Command("emit a standard complex",
                       lambda args: complex_to_dict(standard_complex(args.build)), ("--build",)),
    "dual": Command("Alexander dual",
                    lambda args: complex_to_dict(alexander_dual(load_complex(args.infile))),
                    ("--in",)),
    "bier": Command("Bier sphere of a complex",
                    lambda args: complex_to_dict(bier_sphere(load_complex(args.infile))),
                    ("--in",)),
    "classify": Command("classification tags of a Bier sphere", _classify, ("--in",)),
    "murai": Command("sphere of a proper multicomplex", _murai, ("--in",)),
    "murai-ideal": Command("face ideal of a Murai sphere", _murai_ideal, ("--in",)),
    "betti": Command("bigraded Betti numbers of a face ring", _betti,
                     ("--in", "--oracle", "--field")),
    "golod": Command("product-level Golod predicates", _golod, ("--in", "--field")),
    "faces": Command("f-, h- and gamma-vectors", _faces, ("--in",)),
    "cubical": Command("cubical disc of a complex", _cubical,
                       ("--in", "--boundary", "--homology", "--gw", "--field")),
    "census": Command("classified census of Bier spheres on [m]", _census,
                      ("--m", "--field", "--jobs")),
    # exit 1 when a report has counterexamples
    "verify": Command("run a verification suite", _verify, ("--suite",),
                      lambda payload: int(any(r["counterexamples"] for r in payload["reports"]))),
}


@functools.cache  # parsing leaves the parser unchanged, so one serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bierlab",
        description="Bier and Murai spheres: duality, face rings, cubical models",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flag in command.options + COMMON:
            sub.add_argument(flag, **OPTIONS[flag])
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    payload = command.handler(args)
    dump_json(payload, args.out)
    return command.status(payload)


def main():
    try:
        status = run()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BierlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:
        # stdout closed early (``bierlab ... | head``): point it at devnull
        # so the flush at exit cannot fail again, as Python's signal docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
