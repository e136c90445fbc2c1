"""Command-line surface.

Subcommands: complex | dual | bier | murai | murai-ideal | betti | golod |
faces | classify | cubical | census | verify.  Complexes and multicomplexes
travel as the JSON formats of ``bierlab.jsonio``; results print to stdout
or to ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from multiprocessing import Pool

from . import cache as cachemod
from . import census as censusmod
from .complexes import canonical_key, drop_ghosts, format_key, is_flag, standard_complex
from .complexes import are_isomorphic, truncation_sphere, vertices_of
from .cubical import (
    boundary_complex,
    cell_symbol,
    cubical_homology,
    gw_partition_check,
    z_complex,
)
from .duality import alexander_dual, bier_sphere, classify_bier, reference_flag_sphere
from .errors import BierlabError
from .facevectors import f_vector, gamma_vector, h_vector, is_dehn_sommerville, realize_gamma_as_flag_f
from .jsonio import complex_to_dict, dump_json, load_complex, load_multicomplex
from .multicomplexes import murai_face_ideal, murai_sphere, murai_vertex_labels
from .tor import FieldTag, check_koszul_oracle, check_subset_sweep, golod_summary
from .tor import hochster_betti, koszul_betti_oracle, tor_products


def _add_common(sub):
    sub.add_argument("--out", help="write the JSON result here instead of stdout")
    sub.add_argument("--field", type=int, default=0,
                     help="coefficient field characteristic (0 = rationals)")
    sub.add_argument("--cache-dir", default=cachemod.default_cache_dir(),
                     help="result cache directory (default: $BIERLAB_CACHE)")
    sub.add_argument("--no-cache", action="store_true", help="disable the cache")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes for census")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized checks")


def _cache_dir(args):
    return None if args.no_cache else args.cache_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bierlab",
        description="Bier and Murai spheres: duality, face rings, cubical models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("complex", help="emit a standard complex")
    p.add_argument("--build", required=True,
                   help="builder spec, e.g. cycle:6, points:3,3, nerve-q23")
    _add_common(p)

    p = subs.add_parser("dual", help="Alexander dual")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)

    p = subs.add_parser("bier", help="Bier sphere of a complex")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)

    p = subs.add_parser("classify", help="classification tags of a Bier sphere")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)

    p = subs.add_parser("murai", help="sphere of a proper multicomplex")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)

    p = subs.add_parser("murai-ideal", help="face ideal of a Murai sphere")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)

    p = subs.add_parser("betti", help="bigraded Betti numbers of a face ring")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the Koszul oracle and cross-check")
    _add_common(p)

    p = subs.add_parser("golod", help="product-level Golod predicates")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)

    p = subs.add_parser("faces", help="f-, h- and gamma-vectors")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)

    p = subs.add_parser("cubical", help="cubical disc of a complex")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--boundary", action="store_true", help="emit the boundary cells")
    p.add_argument("--homology", action="store_true", help="reduced homology ranks")
    p.add_argument("--gw", action="store_true", help="run the partition check")
    p.add_argument("--resolution", type=int, default=4)
    _add_common(p)

    p = subs.add_parser("census", help="classified census of Bier spheres on [m]")
    p.add_argument("--m", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   help="suite name or 'all': " + ", ".join(sorted(censusmod.SUITES)))
    p.add_argument("--sample", type=int, default=None,
                   help="cap heavy censuses at this many instances (flagged in report)")
    _add_common(p)

    return parser


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


# Part of every cache key: raise it whenever a key or payload changes format or
# meaning, so records written before the change are never served.
CACHE_FORMAT = 3


def _cached(args, make_key, compute):
    """(value, hit); ``make_key`` runs only when the cache is on, since a
    key can cost a canonical-form search."""
    cache_dir = _cache_dir(args)
    if not cache_dir:
        return compute(), False
    key = f"v{CACHE_FORMAT}|{make_key()}"
    record = cachemod.cache_get(cache_dir, key)
    if record is not None:
        return record["value"], True
    value = compute()
    cachemod.cache_put(cache_dir, key, {"value": value})
    return value, False


def _classify_payload(k):
    cls = classify_bier(k)
    payload = {"tags": list(cls.tags)}
    sphere = drop_ghosts(bier_sphere(k))
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


def _census_record_dict(k_and_field):
    k, p = k_and_field
    return censusmod.sphere_record(k, FieldTag(p)).to_dict()


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    field_tag = FieldTag(args.field)
    cmd = args.command

    if cmd == "complex":
        dump_json(complex_to_dict(standard_complex(args.build)), args.out)
    elif cmd == "dual":
        dump_json(complex_to_dict(alexander_dual(load_complex(args.infile))), args.out)
    elif cmd == "bier":
        dump_json(complex_to_dict(bier_sphere(load_complex(args.infile))), args.out)
    elif cmd == "classify":
        dump_json(_classify_payload(load_complex(args.infile)), args.out)
    elif cmd == "murai":
        mc = load_multicomplex(args.infile)
        payload = complex_to_dict(murai_sphere(mc))
        payload["vertex_labels"] = murai_vertex_labels(mc.c)
        dump_json(payload, args.out)
    elif cmd == "murai-ideal":
        mc = load_multicomplex(args.infile)
        ideal = murai_face_ideal(mc)
        dump_json(
            {
                "variables": list(ideal.variables),
                "generators": [list(g) for g in ideal.generators],
                "generator_monomials": ideal.generator_strings(),
            },
            args.out,
        )
    elif cmd == "betti":
        k = load_complex(args.infile)
        # refuse before the cache key, whose canonical form is the slow part
        check_subset_sweep(k)
        if args.oracle:
            check_koszul_oracle(k)
        payload, _hit = _cached(
            args,
            lambda: f"betti|{canonical_key(k)}|p={args.field}|oracle={args.oracle}",
            lambda: _betti_payload(k, field_tag, args.oracle),
        )
        dump_json(payload, args.out)
    elif cmd == "golod":
        k = load_complex(args.infile)

        def compute():
            golod, min_non = golod_summary(k, field_tag)
            witnesses = tor_products(k, field_tag)
            payload = _betti_payload(k, field_tag, False)
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
        payload, _hit = _cached(
            args, lambda: f"golod|{format_key(k.m, k.facets)}|p={args.field}", compute
        )
        dump_json(payload, args.out)
    elif cmd == "faces":
        k = load_complex(args.infile)
        gamma = gamma_vector(k)
        witness = realize_gamma_as_flag_f(gamma) if gamma is not None else None
        dump_json(
            {
                "f": list(f_vector(k)),
                "h": list(h_vector(k)),
                "gamma": list(gamma) if gamma is not None else None,
                "dehn_sommerville": is_dehn_sommerville(k),
                "flag": is_flag(k),
                "np_witness": complex_to_dict(witness)["facets"] if witness else None,
            },
            args.out,
        )
    elif cmd == "cubical":
        k = load_complex(args.infile)
        z = z_complex(k)
        target = boundary_complex(z) if args.boundary else z
        lines = [cell_symbol(c) for c in sorted(target.cells)]
        payload = {"m": k.m, "cells": lines, "dim": target.dim}
        if args.homology:
            payload["homology"] = cubical_homology(target, args.field)
        if args.gw:
            report = gw_partition_check(k, args.resolution, args.seed)
            payload["gw"] = {
                "grid_points": report.grid_points,
                "random_points": report.random_points,
                "violations": len(report.violations),
            }
        dump_json(payload, args.out)
    elif cmd == "census":
        ks = censusmod.enumerate_complexes(args.m, up_to_iso=True, include_simplex=False)
        work = [(k, args.field) for k in ks]
        if args.jobs > 1:
            with Pool(args.jobs) as pool:
                records = pool.map(_census_record_dict, work)
        else:
            records = [_census_record_dict(w) for w in work]
        dump_json({"m": args.m, "records": records}, args.out)
    elif cmd == "verify":
        names = sorted(censusmod.SUITES) if args.suite == "all" else [args.suite]
        reports = [censusmod.verify(n, seed=args.seed, sample=args.sample) for n in names]
        payload = {"reports": [r.to_dict() for r in reports]}
        dump_json(payload, args.out)
        if any(not r.ok for r in reports):
            return 1
    return 0


def main():
    try:
        sys.exit(run())
    except BierlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
