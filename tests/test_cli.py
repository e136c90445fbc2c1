import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bierlab import cli, complexes, duality, jsonio, tor
from bierlab.cache import cache_put
from bierlab.census import VerificationReport, enumerate_complexes
from bierlab.cli import build_parser, main, run
from bierlab.complexes import Isomorphism, canonical_key, drop_ghosts, maps_facets_onto, points
from bierlab.duality import bier_sphere
from bierlab.errors import InvalidInput, ResourceLimit
from bierlab.jsonio import complex_from_dict, complex_to_dict


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_complex_dual_bier_pipeline(tmp_path):
    k = tmp_path / "k.json"
    b = tmp_path / "b.json"
    assert run(["complex", "--build", "points:3,3", "--out", str(k)]) == 0
    assert read(k) == {"m": 3, "facets": [[1], [2], [3]]}
    assert run(["dual", "--in", str(k), "--out", str(tmp_path / "d.json")]) == 0
    assert read(tmp_path / "d.json") == {"m": 3, "facets": [[1], [2], [3]]}
    assert run(["bier", "--in", str(k), "--out", str(b)]) == 0
    sphere = read(b)
    assert sphere["m"] == 6 and len(sphere["facets"]) == 6


def test_classify_emits_tags_and_witnesses(tmp_path):
    k = tmp_path / "k.json"
    out = tmp_path / "cls.json"
    run(["complex", "--build", "points:3,3", "--out", str(k)])
    assert run(["classify", "--in", str(k), "--out", str(out)]) == 0
    payload = read(out)
    assert set(payload["tags"]) == {"golod-family(3)", "flag-family(cube_x_p6, n=0)"}
    assert payload["flag_family"]["witness_isomorphism"] is not None
    assert payload["golod_family"]["cuts"] == 3


def test_classify_witnesses_map_onto_printed_references(tmp_path):
    # each witness carries the input's ghost-free Bier sphere onto the
    # reference printed beside it, not onto some relabeling of it
    inputs = [k for m in (3, 4) for k in enumerate_complexes(m, include_simplex=False)]
    inputs += [points(count, 5) for count in range(1, 6)]
    checked = set()
    for i, k in enumerate(inputs):
        path, out = tmp_path / f"k{i}.json", tmp_path / f"c{i}.json"
        path.write_text(json.dumps(complex_to_dict(k)))
        assert run(["classify", "--in", str(path), "--out", str(out)]) == 0
        payload = read(out)
        sphere = drop_ghosts(bier_sphere(k))
        for family, field in (("flag_family", "reference"), ("golod_family", "truncation_nerve")):
            if family not in payload:
                continue
            witness = payload[family]["witness_isomorphism"]
            assert witness is not None, (k, family)
            ref = complex_from_dict(payload[family][field])
            assert maps_facets_onto(Isomorphism(tuple(witness)), sphere, ref), (k, family)
            checked.add(family)
    assert checked == {"flag_family", "golod_family"}


def test_golod_cache_keeps_each_labeling(tmp_path):
    # two labelings of the 5-cycle share a canonical key, but a golod
    # payload names the input's own vertices
    first, second = tmp_path / "c5.json", tmp_path / "c5b.json"
    first.write_text(json.dumps({"m": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}))
    second.write_text(json.dumps({"m": 5, "facets": [[1, 3], [3, 5], [2, 5], [2, 4], [1, 4]]}))
    cache_dir = tmp_path / "cache"
    # a record under the label-blind key of the earlier cache format
    stale = f"golod|{canonical_key(complex_from_dict(read(first)))}|p=0"
    cache_put(str(cache_dir), stale, {"value": {"stale": True}})
    cached = ["--cache-dir", str(cache_dir)]
    assert run(["golod", "--in", str(first), "--out", str(tmp_path / "o1.json")] + cached) == 0
    assert "stale" not in read(tmp_path / "o1.json")
    assert run(["golod", "--in", str(second), "--out", str(tmp_path / "o2.json")] + cached) == 0
    assert run(["golod", "--in", str(second), "--no-cache", "--out", str(tmp_path / "ref.json")]) == 0
    got = read(tmp_path / "o2.json")
    assert got == read(tmp_path / "ref.json")
    witness = got["witnesses"][0]
    assert (witness["subset_a"], witness["subset_b"]) == ([1, 2], [3, 4, 5])


def test_betti_and_cache(tmp_path):
    k = tmp_path / "k.json"
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    cache_dir = tmp_path / "cache"
    run(["complex", "--build", "cycle:4", "--out", str(k)])
    args = ["betti", "--in", str(k), "--oracle", "--cache-dir", str(cache_dir)]
    assert run(args + ["--out", str(out1)]) == 0
    assert os.listdir(cache_dir)  # the record landed
    assert run(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    payload = read(out1)
    assert payload["betti"] == [[0, 0, 1], [1, 4, 2], [2, 8, 1]]
    assert payload["oracle_agrees"]
    # disabling the cache yields identical results
    out3 = tmp_path / "o3.json"
    assert run(args + ["--no-cache", "--out", str(out3)]) == 0
    assert read(out3) == payload


def test_betti_without_cache_builds_no_key(tmp_path, monkeypatch):
    # the betti key is a canonical-form search, wasted when nothing is cached
    searched = []
    real = complexes.canonical_form
    monkeypatch.setattr(
        complexes, "canonical_form", lambda k: searched.append(k) or real(k)
    )
    k = tmp_path / "k.json"
    run(["complex", "--build", "cycle:5", "--out", str(k)])
    args = ["betti", "--in", str(k), "--out", str(tmp_path / "o.json")]
    assert run(args + ["--no-cache"]) == 0
    assert searched == []
    assert run(args + ["--cache-dir", str(tmp_path / "cache")]) == 0
    assert searched


def test_cached_betti_refuses_a_huge_input_before_building_its_key(tmp_path, monkeypatch):
    # the key's canonical-form search on 18 vertices ran for minutes
    # before hochster_betti would have refused the input
    def no_search(k):
        raise AssertionError("the cache key was built")

    monkeypatch.setattr(complexes, "canonical_form", no_search)
    k = tmp_path / "k.json"
    run(["complex", "--build", "cross-polytope:9", "--out", str(k)])
    with pytest.raises(ResourceLimit):
        run(["betti", "--in", str(k), "--cache-dir", str(tmp_path / "cache")])


def test_betti_cache_ignores_records_under_the_earlier_key_format(tmp_path):
    # canonical keys changed meaning with format 3, so a format-2 record
    # under today's key may belong to another complex
    k = tmp_path / "k.json"
    run(["complex", "--build", "cycle:5", "--out", str(k)])
    cache_dir = tmp_path / "cache"
    stale = f"v2|betti|{canonical_key(complex_from_dict(read(k)))}|p=0|oracle=False"
    cache_put(str(cache_dir), stale, {"value": {"stale": True}})
    out = tmp_path / "o.json"
    assert run(["betti", "--in", str(k), "--cache-dir", str(cache_dir), "--out", str(out)]) == 0
    assert "stale" not in read(out)
    assert read(out)["betti"] == [[0, 0, 1], [1, 4, 5], [2, 6, 5], [3, 10, 1]]


def test_betti_oracle_refuses_a_large_input_before_any_work(tmp_path, monkeypatch):
    # with the cache on, the key and the whole sweep ran before the Koszul
    # oracle refused m > 10
    def no_work(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(complexes, "canonical_form", no_work)
    monkeypatch.setattr(tor, "subset_cohomology", no_work)
    k = tmp_path / "k.json"
    run(["complex", "--build", "cross-polytope:6", "--out", str(k)])
    with pytest.raises(ResourceLimit):
        run(["betti", "--in", str(k), "--oracle", "--cache-dir", str(tmp_path / "cache")])


def test_golod_command(tmp_path):
    k = tmp_path / "k.json"
    out = tmp_path / "g.json"
    run(["complex", "--build", "cycle:4", "--out", str(k)])
    assert run(["golod", "--in", str(k), "--field", "2", "--out", str(out)]) == 0
    payload = read(out)
    assert payload["field"] == 2
    assert not payload["product_golod"] and payload["min_non_golod"]
    assert payload["witnesses"] == [
        {
            "subset_a": [1, 3],
            "subset_b": [2, 4],
            "cochain_sizes": [1, 1],
            "class_indices": [0, 0],
        }
    ]


def test_faces_command(tmp_path):
    k = tmp_path / "k.json"
    out = tmp_path / "f.json"
    run(["complex", "--build", "cycle:6", "--out", str(k)])
    assert run(["faces", "--in", str(k), "--out", str(out)]) == 0
    payload = read(out)
    assert payload["f"] == [1, 6, 6] and payload["h"] == [1, 4, 1]
    assert payload["gamma"] == [1, 2] and payload["dehn_sommerville"]
    assert payload["np_witness"] == [[1], [2]]


def test_murai_commands(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"c": [2, 1], "max_monomials": [[1, 0], [0, 1]]}))
    out = tmp_path / "s.json"
    assert run(["murai", "--in", str(m), "--out", str(out)]) == 0
    payload = read(out)
    assert payload["m"] == 5 and len(payload["facets"]) == 5
    assert payload["vertex_labels"][0] == "x1^(0)"
    out2 = tmp_path / "i.json"
    assert run(["murai-ideal", "--in", str(m), "--out", str(out2)]) == 0
    assert len(read(out2)["generators"]) == 5


def test_cubical_command(tmp_path):
    k = tmp_path / "k.json"
    out = tmp_path / "c.json"
    run(["complex", "--build", "points:3,3", "--out", str(k)])
    assert run(
        ["cubical", "--in", str(k), "--boundary", "--homology", "--gw", "--out", str(out)]
    ) == 0
    payload = read(out)
    assert payload["homology"] == [0, 1]
    assert payload["gw"] == {"corners": 8, "violations": 0}
    assert all(set(line.split()) <= {"-", "0", "+", "[-0]", "[0+]"} for line in payload["cells"])


def test_a_classify_request_builds_one_bier_sphere(tmp_path, monkeypatch):
    k = tmp_path / "k.json"
    run(["complex", "--build", "points:3,3", "--out", str(k)])
    built = []
    for module in (cli, duality):
        real = module.bier_sphere
        monkeypatch.setattr(module, "bier_sphere", lambda x, real=real: built.append(x) or real(x))
    assert run(["classify", "--in", str(k), "--out", str(tmp_path / "o.json"), "--no-cache"]) == 0
    assert built == [points(3, 3)]


def test_classify_refuses_after_one_pass_over_the_nonfaces_of_k(tmp_path, monkeypatch):
    # cross-polytope:10 has 2^20 faces, just inside the bound; its Bier
    # sphere (393,660 facets) is refused while its facets are listed from
    # K's faces, before any pass over the non-faces of K or of its dual
    path = tmp_path / "k.json"
    path.write_text(json.dumps(complex_to_dict(complexes.cross_polytope(10))))
    passes = []
    real = duality.minimal_nonfaces
    monkeypatch.setattr(duality, "minimal_nonfaces", lambda k: passes.append(k) or real(k))
    with pytest.raises(ResourceLimit, match=r"bier_sphere: need <= 2\^14 facets"):
        run(["classify", "--in", str(path), "--no-cache"])
    assert len(passes) == 0


def test_census_command(tmp_path):
    out = tmp_path / "census.json"
    assert run(["census", "--m", "3", "--out", str(out)]) == 0
    payload = read(out)
    assert len(payload["records"]) == 8
    tags = {t for r in payload["records"] for t in r["tags"]}
    assert "simplex" in tags and "golod-family(3)" in tags


def test_verify_command(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "bier-1dim", "--out", str(out)]) == 0
    payload = read(out)
    assert payload["reports"][0]["passed"] == payload["reports"][0]["instances"]


def test_bad_builder_is_an_error():
    with pytest.raises(InvalidInput):
        run(["complex", "--build", "dodecahedron:12"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "bier-1dim", "--field", "3"],
        ["verify", "--suite", "bier-1dim", "--jobs", "2"],
        ["dual", "--in", "K", "--field", "2"],
        ["dual", "--in", "K", "--jobs", "2"],
        ["census", "--m", "3", "--seed", "1"],
        ["golod", "--in", "K", "--jobs", "2"],
        ["faces", "--in", "K", "--field", "2"],
        ["verify", "--suite", "golod", "--sample", "2"],
        ["verify", "--suite", "bier-1dim", "--seed", "1"],
        ["cubical", "--in", "K", "--resolution", "4"],
        ["cubical", "--in", "K", "--seed", "1"],
    ],
)
def test_subcommands_refuse_options_they_do_not_read(tmp_path, argv):
    # a valid input, so only the unread option can make the command fail
    k = tmp_path / "k.json"
    run(["complex", "--build", "cycle:4", "--out", str(k)])
    argv = [str(k) if a == "K" else a for a in argv] + ["--out", str(tmp_path / "o.json")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--in", "K"],
        ["golod", "--in", "K"],
        ["cubical", "--in", "K", "--homology"],
        ["census", "--m", "3"],
    ],
)
def test_a_field_that_is_not_prime_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    k = tmp_path / "k.json"
    run(["complex", "--build", "points:3,3", "--out", str(k)])
    monkeypatch.setattr(cli, "load_complex", no_work)
    monkeypatch.setattr(cli.censusmod, "_bier_spheres", no_work)
    with pytest.raises(SystemExit) as exc:
        run([str(k) if a == "K" else a for a in argv] + ["--field", "4"])
    assert exc.value.code == 2
    assert "characteristic must be 0 or prime, got 4" in capsys.readouterr().err


def test_verify_exits_1_when_a_report_has_counterexamples(tmp_path, monkeypatch):
    def failing(name):
        return VerificationReport(name, 2, 1, [{"instance": 1}])

    monkeypatch.setattr(cli.censusmod, "verify", failing)
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "bier-1dim", "--out", str(out)]) == 1
    assert read(out)["reports"][0]["counterexamples"] == [{"instance": 1}]


def test_every_readme_command_line_parses():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("bierlab ")]
    assert len(lines) == 12
    parser = build_parser()
    for line in lines:
        words = shlex.split(line)[1:]
        assert parser.parse_args(words).command == words[0]


def test_main_turns_a_bierlab_error_into_exit_2_and_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bierlab", "complex", "--build", "dodecahedron:12"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown builder 'dodecahedron'")


def test_the_cache_directory_defaults_to_the_environment(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("BIERLAB_CACHE", str(cache_dir))
    k = tmp_path / "k.json"
    run(["complex", "--build", "cycle:5", "--out", str(k)])
    args = ["betti", "--in", str(k), "--out", str(tmp_path / "o.json")]
    assert run(args + ["--no-cache"]) == 0
    assert not cache_dir.exists()
    assert run(args) == 0
    assert len(os.listdir(cache_dir)) == 1


@pytest.mark.parametrize("value", ["0", "-2"])
def test_jobs_below_one_are_refused_while_parsing(monkeypatch, capsys, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(cli.censusmod, "_bier_spheres", no_work)
    with pytest.raises(SystemExit) as exc:
        run(["census", "--m", "3", "--jobs", value])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"bierlab census: error: argument --jobs: must be at least 1, got {value}"]


@pytest.mark.parametrize(
    "argv, error, work",
    [
        (["dual", "--in", "SIMPLEX22"], "need <= 2^20", None),
        (["bier", "--in", "SIMPLEX22"], "need <= 2^20", None),
        (["classify", "--in", "SIMPLEX22"], "need <= 2^20", None),
        (["faces", "--in", "SIMPLEX22"], "need <= 2^20", None),
        (["murai", "--in", "CAPS40"], "need <= 10^5", None),
        (["murai-ideal", "--in", "CAPS40"], "need <= 10^5", None),
        (["murai", "--in", "CAPS200"], "need <= 64", None),
        (["cubical", "--in", "OCTAHEDRON4", "--homology"], "need m <= 5", None),
        (["census", "--m", "-1"], "ground-set size must be nonnegative, got -1", None),
        (["bier", "--in", "VOID8000"], "need m <= 64", (jsonio, "make_complex")),
        (["complex", "--build", "cross-polytope:11"], "need n <= 10", (complexes, "join")),
        (["complex", "--build", "cycle:100000"], "need each argument <= 64", (complexes, "cycle")),
        (["complex", "--build", "simplex:100000"], "need each argument <= 64",
         (complexes, "simplex")),
        (["complex", "--build", "truncation-sphere:48,48"], "need m + cuts <= 64",
         (complexes, "stellar_subdivision")),
        (["complex", "--build", "truncation-sphere:64,64"], "need m + cuts <= 64",
         (complexes, "stellar_subdivision")),
        (["bier", "--in", "OCTAHEDRON8"], "need <= 2^14 facets", (duality, "Complex")),
        (["classify", "--in", "OCTAHEDRON8"], "need <= 2^14 facets", (duality, "Complex")),
    ],
    ids=["dual", "bier", "classify", "faces", "murai", "murai-ideal", "murai-caps-200", "cubical",
         "census", "bier-json-m8000",
         "cross-polytope-11", "cycle-100000", "simplex-100000", "truncation-sphere-48-48",
         "truncation-sphere-64-64", "bier-cross-polytope-8", "classify-cross-polytope-8"],
)
def test_exponential_and_negative_inputs_exit_2_before_any_work(
    tmp_path, monkeypatch, capsys, argv, error, work
):
    # each of these ran for more than 20 s, or ended in a traceback; Z(K)
    # and each case's named step are patched to fail
    files = {
        "SIMPLEX22": complex_to_dict(complexes.boundary_simplex(22)),
        "CAPS40": {"c": [40] * 5, "max_monomials": [[1] * 5]},
        # a box of 201 vectors, but a sphere on 201 vertices
        "CAPS200": {"c": [200], "max_monomials": [[5]]},
        "OCTAHEDRON4": complex_to_dict(complexes.cross_polytope(4)),
        "OCTAHEDRON8": complex_to_dict(complexes.cross_polytope(8)),
        "VOID8000": {"m": 8000, "facets": []},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(cli, "z_complex", no_work)
    if work is not None:
        monkeypatch.setattr(*work, no_work)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    monkeypatch.setattr(sys, "argv", ["bierlab"] + argv + ["--no-cache"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and error in lines[0]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("bier", {"m": 3, "facets": [[1.5, 2.9], [3]]}),
        ("bier", {"m": 3.0, "facets": [[1], [2]]}),
        ("bier", {"m": True, "facets": [[1]]}),
        ("bier", {"m": "3", "facets": [[1], [2]]}),
        ("bier", {"m": 3, "facets": [[1, True], [3]]}),
        ("murai", {"c": [2.7, 1], "max_monomials": [[1, 0]]}),
        ("murai", {"c": [2, 1], "max_monomials": [[1, 0.5]]}),
        ("murai", {"c": ["2", 1], "max_monomials": [[1, 0]]}),
    ],
    ids=["vertex-float", "m-float", "m-true", "m-string", "vertex-true", "caps-float",
         "exponent-float", "caps-string"],
)
def test_json_numbers_other_than_integers_exit_2(tmp_path, monkeypatch, capsys, command, payload):
    # int() would truncate 2.7 to 2 and read true and "2" as numbers
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(sys, "argv", ["bierlab", command, "--in", str(path), "--no-cache"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "expected an integer" in lines[0]


VALID_INPUT = {
    "bier": {"m": 2, "facets": [[1], [2]]},
    "murai": {"c": [2, 1], "max_monomials": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize(
    "case", ["missing", "truncated", "directory", "not-utf8", "too-deep", "out-dir-missing"]
)
@pytest.mark.parametrize("command", sorted(VALID_INPUT))
def test_a_file_that_cannot_be_read_or_written_exits_2(tmp_path, monkeypatch, capsys, command, case):
    # each ended in a traceback and exit 1, the code verify keeps for counterexamples
    path = tmp_path / "in.json"
    named = path
    argv = ["bierlab", command, "--in", str(path), "--no-cache"]
    if case == "truncated":
        path.write_text('{"m": 3, "fac')
    elif case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    elif case == "too-deep":
        path.write_text("[" * 200_000 + "]" * 200_000)
    elif case == "out-dir-missing":
        path.write_text(json.dumps(VALID_INPUT[command]))
        named = tmp_path / "missing" / "out.json"
        argv += ["--out", str(named)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(named) in lines[0]


def test_one_parser_serves_every_run_and_no_option_outlives_its_run(tmp_path):
    assert build_parser() is build_parser()
    k = tmp_path / "k.json"
    out = tmp_path / "o.json"
    run(["complex", "--build", "points:3,3", "--out", str(k)])
    run(["betti", "--in", str(k), "--oracle", "--no-cache", "--out", str(out)])
    assert read(out)["oracle_agrees"] is True
    run(["betti", "--in", str(k), "--no-cache", "--out", str(out)])
    assert "oracle_agrees" not in read(out)
    run(["cubical", "--in", str(k), "--gw", "--out", str(out)])
    assert "gw" in read(out)
    run(["cubical", "--in", str(k), "--out", str(out)])
    assert "gw" not in read(out)


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # the complex is about 110 kB of JSON, more than a pipe buffer holds,
    # so the write is still pending when the reader closes its end
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = [sys.executable, "-m", "bierlab.cli", "complex", "--build", "cross-polytope:10"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
