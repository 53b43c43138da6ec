import hashlib
import json
import random
import runpy
import sys

import pytest

from zonotile import bitsets as bs
from zonotile import cli, jsonio, separation, suite
from zonotile.cli import cmd
from zonotile.combi import from_rhombus, from_w_collection, spectrum
from zonotile.flips import interval_combi
from zonotile.patterns import boundary_pattern, split_quasi
from zonotile.render import render_svg
from zonotile.rhombus import maximal_tiling, minimal_tiling
from zonotile.separation import (
    cointerval_collection,
    hypercube_domain,
    interval_collection,
)

import oracles

M = bs.mask_of

# the bytes `zonotile enumerate` writes for the 6-cube's 3,694 weak and 908
# strong maximal collections, so a change to how the collections are found,
# built or ordered cannot pass unseen
ENUMERATE_6_CUBE_SHA256 = {
    "weak": "3613eda452b3840af692c90459f4f46c997ecbb47e20724de699fb2734ea6ceb",
    "strong": "4115a360f30e5b09c00f29f95aacea32e1becb25d19d4a06fae1cbcf26ecbadb",
}

# the bytes `render_svg` writes, with and without labels, for every combi and
# every strong tiling with n <= 5 and 200 seeded patterns, so a change to how
# a drawing is assembled cannot move a byte unseen
RENDER_SHA256 = "c5eea00964820cbf4d679929f2ccecacc9296b2ef2fdcae98a7ce78b8d1a48a5"


class TestJsonRoundTrips:
    def test_family(self):
        fam = interval_collection(4)
        assert jsonio.family_from_json(jsonio.family_to_json(fam)) == fam

    def test_tiling(self):
        tiling = minimal_tiling(4)
        assert jsonio.tiling_from_json(oracles.tiling_json(tiling)) == tiling

    def test_tiling_at_the_largest_ground_set(self):
        # element 16, bitsets.MAX_GROUND, is read back; 17, and 0 below the
        # range, are refused by name before any mask is built
        data = oracles.tiling_json(minimal_tiling(16))
        assert max(r["j"] for r in data["rhombi"]) == 16
        assert jsonio.tiling_from_json(data) == minimal_tiling(16)
        rhombus = next(r for r in data["rhombi"] if r["j"] == 16)
        rhombus["j"] = 17
        with pytest.raises(ValueError) as info:
            jsonio.tiling_from_json(data)
        assert str(info.value) == "j must be in 1..16, got 17"
        rhombus["i"], rhombus["j"] = 0, 16
        with pytest.raises(ValueError) as info:
            jsonio.tiling_from_json(data)
        assert str(info.value) == "i must be in 1..16, got 0"

    def test_combi_all_n4(self):
        for combi in oracles.cube_combis(4):
            assert jsonio.combi_from_json(jsonio.combi_to_json(combi)) == combi

    def test_pattern(self):
        pat = boundary_pattern(3)
        assert jsonio.pattern_from_json(oracles.pattern_json(pat)) == pat

    def test_path(self):
        path = (0, M([1]), M([1, 2]))
        assert jsonio.path_from_json(jsonio.path_to_json(path)) == path

    def test_decoders_take_only_ints_and_documented_shapes(self):
        bad = [
            (jsonio.family_from_json, {"n": 3.0, "members": [[1]]}),
            (jsonio.tiling_from_json, {"n": 3, "rhombi": [{"X": [], "i": 1, "j": 2.0}]}),
            (jsonio.tiling_from_json, {"n": 3, "rhombi": [{"X": [], "i": 1, "j": 10 ** 15}]}),
            (jsonio.combi_from_json, [{"n": 2}]),
            (jsonio.combi_from_json, {"n": 2, "nablas": [{"bottom": [], "base": [[1]]}]}),
            (jsonio.combi_from_json, {"n": 2, "lenses": {}}),
            (jsonio.pattern_from_json, {"n": 3, "cycle": "abc"}),
            (jsonio.path_from_json, {"vertices": [[], [False]]}),
        ]
        for decode, data in bad:
            with pytest.raises(ValueError):
                decode(data)

    def test_malformed_rejected(self):
        with pytest.raises((ValueError, KeyError, TypeError)):
            jsonio.family_from_json({"n": 3, "members": [[1], [1]]})


class TestRender:
    def test_byte_identical(self):
        combi = interval_combi(4)
        assert render_svg(combi) == render_svg(combi)

    def test_z1_combi_svg(self):
        from zonotile.combi import Combi

        svg = render_svg(Combi(1))
        assert svg.count("<line") == 1
        assert svg.count("<circle") == 2

    def test_lens_shading(self):
        lensy = next(c for c in oracles.cube_combis(4) if c.lenses)
        svg = render_svg(lensy)
        assert svg.count("<polygon") == len(lensy.lenses) == 1

    def test_pattern_render_dashed(self):
        svg = render_svg(boundary_pattern(3))
        assert "stroke-dasharray" in svg

    def test_quasi_combi_is_not_rendered(self):
        inner, _ = split_quasi(interval_combi(3), boundary_pattern(3))
        with pytest.raises(TypeError, match="cannot render object of type QuasiCombi"):
            render_svg(inner)

    def test_tiling_render_through_cli(self, tmp_path):
        tiling = minimal_tiling(3)
        tiling_file = tmp_path / "t.json"
        tiling_file.write_text(json.dumps(oracles.tiling_json(tiling)))
        svg_file = tmp_path / "t.svg"
        assert cmd(["render", "--tiling", str(tiling_file), "--out", str(svg_file)]) == 0
        assert svg_file.read_text() == render_svg(tiling)
        assert svg_file.read_text().count("<line") == len(from_rhombus(tiling).vertical_edges()) == 9
        bare = tmp_path / "bare.svg"
        assert cmd(["render", "--tiling", str(tiling_file), "--no-labels", "--out", str(bare)]) == 0
        assert bare.read_text() == render_svg(tiling, labels=False)
        assert "<text" not in bare.read_text()

    def test_svg_bytes_are_pinned(self):
        combis = [c for n in range(1, 6) for c in oracles.cube_combis(n)]
        tilings = [t for n in range(1, 6) for t in oracles.strong_tilings(n)]
        rng = random.Random(11)
        patterns = []
        while len(patterns) < 200:
            generalized = rng.choice((False, True))
            pat = oracles.sample_pattern(rng.choice(combis[2:]), rng, generalized)
            if pat is not None:
                patterns.append(pat)
        h = hashlib.sha256()
        for obj in combis + tilings + patterns:
            for labels in (True, False):
                h.update(render_svg(obj, labels=labels).encode())
        assert (len(combis), len(tilings)) == (138, 74)
        assert h.hexdigest() == RENDER_SHA256

    def test_pattern_render_to_stdout(self, tmp_path, capsys):
        pattern = boundary_pattern(3)
        pat_file = tmp_path / "pat.json"
        pat_file.write_text(json.dumps(oracles.pattern_json(pattern)))
        assert cmd(["render", "--pattern", str(pat_file)]) == 0
        assert capsys.readouterr().out == render_svg(pattern)


class TestCli:
    def test_purity_hypercube(self, capsys):
        assert cmd(["purity", "--hypercube", "3", "--relation", "weak"]) == 0
        assert capsys.readouterr().out.strip() == "pure, rank 7"

    def test_separation_output(self, capsys):
        assert cmd(["separation", "1,2", "2,3", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "weakly_separated: true" in out
        assert "termwise: true" in out

    def test_purity_domain_impure(self, tmp_path, capsys):
        domain = tmp_path / "domain.json"
        domain.write_text(json.dumps({"n": 4, "members": [[2], [3], [1, 4]]}))
        assert cmd(["purity", "--domain", str(domain), "--relation", "weak"]) == 0
        assert capsys.readouterr().out.strip() == "impure, ranks 1,2"

    def test_separation_of_a_set_with_itself(self, capsys):
        # termwise, cancel and split compare distinct sets only
        assert cmd(["separation", "1,2", "1,2", "--n", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        for kind in ("termwise", "cancel", "split"):
            assert f"{kind}: undefined" in out
        assert "global: undefined" not in out

    def test_separation_rejects_out_of_range_sets(self, capsys):
        assert cmd(["separation", "1,2", "5", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "invalid-input"
        assert "outside 1..3" in err["detail"]

    @pytest.mark.parametrize(
        "text, detail",
        [
            ('{"n": 3, "members": 5}', "members must be a list, got 5"),
            ("[[1], [2]]", "family must be an object, got [[1], [2]]"),
            ('{"n": 3, "members": [[1.5], [2]]}', "subset element must be an integer, got 1.5"),
            ('{"n": true, "members": [[1]]}', "n must be an integer, got True"),
            ('{"n": 3, "members": [[1], [1000000000000000]]}', "element 1000000000000000 out of range 1..16"),
            ("[" * 100000, "JSON nested too deeply"),
            ('{"n": 3}', "family lacks the field 'members'"),
            ('{"n": 3, "members": [[1], 2]}', "subset must be a list of elements"),
            ('{"n": 3, "members": [[1], [2], [1]]}', "SetFamily members must be duplicate-free"),
        ],
        ids=[
            "members-not-a-list", "top-level-list", "float-element", "bool-n", "huge-element", "deep-nesting",
            "no-members", "bare-element", "duplicate-member",
        ],
    )
    def test_enumerate_rejects_hostile_domain(self, tmp_path, capsys, text, detail):
        domain = tmp_path / "domain.json"
        domain.write_text(text)
        assert cmd(["enumerate", "--domain", str(domain)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "invalid-input"
        assert detail in err["detail"]

    @pytest.mark.parametrize("relation, digest", ENUMERATE_6_CUBE_SHA256.items(), ids=list(ENUMERATE_6_CUBE_SHA256))
    def test_enumerate_output_of_the_6_cube_is_pinned(self, tmp_path, relation, digest):
        domain, out = tmp_path / "cube.json", tmp_path / "report.json"
        domain.write_text(json.dumps(jsonio.family_to_json(hypercube_domain(6))))
        assert cmd(["enumerate", "--domain", str(domain), "--relation", relation, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_verify_has_no_jobs_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cmd(["verify", "--paper-suite", "--jobs", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_separation_rejects_huge_element(self, capsys):
        assert cmd(["separation", "1,2", "1000000000000000", "--n", "3"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-input", "detail": "element 1000000000000000 out of range 1..16"}

    def test_enumerate_and_build(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(jsonio.family_to_json(hypercube_domain(3))))
        out_file = tmp_path / "report.json"
        assert cmd(["enumerate", "--domain", str(fam_file), "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["pure"] and report["ranks"] == [7]

        i4 = tmp_path / "i4.json"
        i4.write_text(json.dumps(jsonio.family_to_json(interval_collection(4))))
        combi_file = tmp_path / "combi.json"
        assert cmd(["build-combi", "--family", str(i4), "--out", str(combi_file)]) == 0
        svg_file = tmp_path / "c.svg"
        assert cmd(["render", "--combi", str(combi_file), "--out", str(svg_file)]) == 0
        assert svg_file.read_text().count("<text") == 11

    def test_contract_expand_files(self, tmp_path):
        combi_file = tmp_path / "c.json"
        combi_file.write_text(json.dumps(jsonio.combi_to_json(interval_combi(4))))
        small = tmp_path / "small.json"
        path = tmp_path / "path.json"
        assert cmd([
            "contract", "--combi", str(combi_file),
            "--out-combi", str(small), "--out-path", str(path),
        ]) == 0
        back = tmp_path / "back.json"
        assert cmd([
            "expand", "--combi", str(small), "--path", str(path), "--out", str(back),
        ]) == 0
        assert json.loads(back.read_text()) == json.loads(combi_file.read_text())

    def test_expand_illegal_path_error_text_and_exit_code(self, tmp_path, capsys):
        # n_expand checks the path itself; the CLI passes its error on unchanged
        combi_file = tmp_path / "c.json"
        combi_file.write_text(json.dumps(jsonio.combi_to_json(interval_combi(3))))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": [[], [3], [1, 3], [1, 2, 3]]}))
        assert cmd(["expand", "--combi", str(combi_file), "--path", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == (
            '{"error": "invalid-input", "detail": "P1: {3}->{1,3} is not a vertical edge"}'
        )

    def test_flip_and_descend(self, tmp_path):
        high = oracles.cube_combis(3)[1]
        combi_file = tmp_path / "c.json"
        combi_file.write_text(json.dumps(jsonio.combi_to_json(high)))
        out = tmp_path / "low.json"
        trace = tmp_path / "trace.jsonl"
        assert cmd([
            "descend", "--combi", str(combi_file), "--out", str(out), "--trace", str(trace),
        ]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert all(l["op"] == "lower" for l in lines)
        low = jsonio.combi_from_json(json.loads(out.read_text()))
        assert spectrum(low) == interval_collection(3)

    def test_flip_raise_then_lower_restores_interval_combi(self, tmp_path, capsys):
        start = tmp_path / "interval.json"
        start.write_text(json.dumps(jsonio.combi_to_json(interval_combi(3))))
        raised, back, trace = tmp_path / "raised.json", tmp_path / "back.json", tmp_path / "t.jsonl"
        args = ["--core", "", "--i", "1", "--j", "2", "--k", "3", "--trace", str(trace)]
        assert cmd(["flip", "--combi", str(start), "--op", "raise", "--out", str(raised)] + args) == 0
        assert jsonio.combi_from_json(json.loads(raised.read_text())) != interval_combi(3)
        assert cmd(["flip", "--combi", str(raised), "--op", "lower", "--out", str(back)] + args) == 0
        assert jsonio.combi_from_json(json.loads(back.read_text())) == interval_combi(3)
        assert [json.loads(l) for l in trace.read_text().splitlines()] == [
            {"op": op, "Y": [], "i": 1, "j": 2, "k": 3} for op in ("raise", "lower")
        ]
        # n = 3 has two combis: the interval combi cannot be lowered and the
        # raised one cannot be raised
        for combi_file, op, kind in ((start, "lower", "W"), (raised, "raise", "M")):
            assert cmd(["flip", "--combi", str(combi_file), "--op", op] + args) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {
                "error": "invalid-input",
                "detail": f"the requested {kind}-configuration is not present",
            }

    def test_flip_rejects_types_out_of_range(self, tmp_path, capsys):
        combi_file = tmp_path / "c.json"
        combi_file.write_text(json.dumps(jsonio.combi_to_json(interval_combi(3))))
        argv = ["flip", "--combi", str(combi_file), "--op", "raise", "--core", ""]
        assert cmd(argv + ["--i", "1", "--j", "2", "--k", "1000000000000000"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-input", "detail": "--i, --j and --k must lie in 1..3"}

    def test_flip_rejects_types_out_of_order(self, tmp_path, capsys):
        # checked before any triangle is built, whose constructors would
        # otherwise reject the types with their own texts
        combi_file = tmp_path / "c.json"
        combi_file.write_text(json.dumps(jsonio.combi_to_json(interval_combi(3))))
        for op, types in (("lower", ("2", "2", "3")), ("raise", ("3", "2", "1"))):
            argv = ["flip", "--combi", str(combi_file), "--op", op, "--core", ""]
            assert cmd(argv + ["--i", types[0], "--j", types[1], "--k", types[2]]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "invalid-input", "detail": "types must satisfy i < j < k"}

    def test_flip_rejects_a_core_holding_a_type(self, tmp_path, capsys):
        combi_file, out, trace = tmp_path / "c.json", tmp_path / "out.json", tmp_path / "t.jsonl"
        high = from_w_collection(cointerval_collection(3), check_input=False)
        combi_file.write_text(json.dumps(jsonio.combi_to_json(high)))
        argv = ["flip", "--combi", str(combi_file), "--op", "raise", "--core", "1,2,3", "--out", str(out)]
        assert cmd(argv + ["--i", "1", "--j", "2", "--k", "3", "--trace", str(trace)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-input", "detail": "the core must avoid i, j and k"}
        assert not out.exists() and not trace.exists()

    def test_pattern_commands(self, tmp_path, capsys):
        pat_file = tmp_path / "pat.json"
        pat_file.write_text(json.dumps(oracles.pattern_json(boundary_pattern(3))))
        assert cmd(["pattern", "classify", "--pattern", str(pat_file)]) == 0
        assert capsys.readouterr().out.strip() == "simple"
        out = tmp_path / "doms.json"
        assert cmd(["pattern", "domains", "--pattern", str(pat_file), "--out", str(out)]) == 0
        doms = json.loads(out.read_text())
        assert len(doms["inside"]["members"]) == 8
        verdict = tmp_path / "verdict.json"
        assert cmd(["pattern", "verify", "--pattern", str(pat_file), "--out", str(verdict)]) == 0
        assert json.loads(verdict.read_text())["complementary"] is True

    def test_resource_guard_exit_code(self, tmp_path, capsys):
        assert cmd(["purity", "--hypercube", "12", "--relation", "weak"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource-guard"

    def test_enumeration_past_its_output_budget_is_a_resource_guard(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(separation, "OUTPUT_BUDGET", 9)
        domain = tmp_path / "cube.json"
        domain.write_text(json.dumps(jsonio.family_to_json(hypercube_domain(4))))
        assert cmd(["enumerate", "--domain", str(domain)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "resource-guard",
            "detail": "domain has more than 9 maximal collections, the output budget",
        }

    def test_out_of_memory_is_exit_2(self, monkeypatch, tmp_path, capsys):
        def exhaust(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "enumerate_maximal", exhaust)
        domain = tmp_path / "cube.json"
        domain.write_text(json.dumps(jsonio.family_to_json(hypercube_domain(3))))
        assert cmd(["enumerate", "--domain", str(domain)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "out-of-memory", "detail": "ran out of memory"}

    def test_pattern_domains_are_unguarded_and_verify_meets_the_member_guard(self, tmp_path, capsys):
        pat_file = tmp_path / "pat.json"
        pat_file.write_text(json.dumps(oracles.pattern_json(boundary_pattern(9))))
        assert cmd(["pattern", "domains", "--pattern", str(pat_file)]) == 0
        doms = json.loads(capsys.readouterr().out)
        assert (len(doms["inside"]["members"]), len(doms["outside"]["members"])) == (512, 18)
        assert cmd(["pattern", "verify", "--pattern", str(pat_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "resource-guard", "detail": "domain has 512 members, enumeration guard is 256"}

    def test_invalid_combi_rejected(self, tmp_path, capsys):
        broken = {"n": 2, "deltas": [], "nablas": [{"bottom": [], "base": [[1], [2]]}], "lenses": []}
        f = tmp_path / "broken.json"
        f.write_text(json.dumps(broken))
        assert cmd(["render", "--combi", str(f)]) == 1

    @pytest.mark.parametrize(
        "kind, corner_key, corner, base, detail",
        [
            ("deltas", "apex", [1, 2, 3], [[1, 2], [2]], "{1,2}-{2} is not the base of a delta at {1,2,3}"),
            ("nablas", "bottom", [], [[1], [2, 3]], "{1}-{2,3} is not the base of a nabla at {}"),
        ],
    )
    def test_triangle_base_is_checked(self, tmp_path, capsys, kind, corner_key, corner, base, detail):
        # a base that does not fit its apex or bottom was once replaced by
        # the one that does
        data = jsonio.combi_to_json(interval_combi(3))
        tile = next(t for t in data[kind] if t[corner_key] == corner)
        tile["base"] = base
        f = tmp_path / "c.json"
        f.write_text(json.dumps(data))
        assert cmd(["descend", "--combi", str(f), "--out", str(tmp_path / "out.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-input", "detail": detail}

    @pytest.mark.parametrize(
        "option, value, detail",
        [
            ("--max-n", "2", "max_n must be at least 3, got 2"),
            ("--samples", "0", "samples must be at least 1, got 0"),
        ],
    )
    def test_verify_rejects_a_range_that_checks_nothing(self, capsys, option, value, detail):
        assert cmd(["verify", "--paper-suite", option, value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "invalid-input", "detail": detail}

    @pytest.mark.parametrize("max_n", ["8"])
    def test_verify_past_its_bound_is_a_resource_guard(self, monkeypatch, capsys, max_n):
        # the weak 8-cube alone holds 42,419,886 collections: the run stops
        # before it enumerates or reconstructs anything
        def refuse(*args, **kwargs):
            raise AssertionError("the suite started its work")

        for name in ("enumerate_maximal", "purity_verdict", "from_w_collection"):
            monkeypatch.setattr(suite, name, refuse)
        assert cmd(["verify", "--paper-suite", "--max-n", max_n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "resource-guard", "detail": f"max_n is at most 7, got {max_n}"}

    @pytest.mark.parametrize(
        "fault, error, detail",
        [
            ("type-in-base", "invalid-input", "bottom of a Nabla must avoid both type elements"),
            ("out-of-range", "invalid-input", "mask 0x13 has elements outside 1..4"),
            ("missing", "edge-sharing", "interior edge (6, 7) is not shared by tiles on both sides"),
            ("overlapping", "edge-sharing", "directed edge (1, 0) used twice"),
            ("moved", "region-boundary", "boundary edge (1, 0) not covered exactly once by the tiles"),
        ],
    )
    def test_render_rejects_a_bad_tiling(self, tmp_path, capsys, fault, error, detail):
        # each JSON rhombus is read as its two triangles, which the combi
        # layer checks and validates
        data = oracles.tiling_json(minimal_tiling(4))
        rhombi = data["rhombi"]
        if fault == "type-in-base":
            rhombi[0]["X"] = [rhombi[0]["i"]]
        elif fault == "out-of-range":
            rhombi[0]["X"] = [5]
        elif fault == "missing":
            del rhombi[-1]
        elif fault == "overlapping":
            rhombi.append(next(r for r in oracles.tiling_json(maximal_tiling(4))["rhombi"] if r not in rhombi))
        else:
            rhombi[0]["X"] = [4]
        f = tmp_path / "t.json"
        f.write_text(json.dumps(data))
        assert cmd(["render", "--tiling", str(f), "--out", str(tmp_path / "t.svg")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": error, "detail": detail}
        assert not (tmp_path / "t.svg").exists()

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["purity"], "pass exactly one of --domain or --hypercube"),
            (["purity", "--domain", "d.json", "--hypercube", "3"], "pass exactly one of --domain or --hypercube"),
            (["verify"], "only --paper-suite verification is available"),
            (["render"], "pass exactly one of --combi, --tiling, --pattern"),
            (["render", "--combi", "c.json", "--tiling", "t.json"], "pass exactly one of --combi, --tiling, --pattern"),
        ],
    )
    def test_option_combinations_are_checked_first(self, capsys, argv, detail):
        # the named files do not exist: the check comes before any read
        assert cmd(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "invalid-input", "detail": detail}

    def test_verify_report_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--paper-suite", "--max-n", "3", "--seed", "7", "--samples", "40"]
        assert cmd(args + ["--out", str(out1)]) == 0
        assert cmd(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.filterwarnings("ignore:'zonotile.cli' found in sys.modules")
    @pytest.mark.parametrize("run", [cli.main, lambda: runpy.run_module("zonotile.cli", run_name="__main__")],
                             ids=["console-script", "python-m"])
    @pytest.mark.parametrize("argv, code, out, error", [
        (["purity", "--hypercube", "3"], 0, "pure, rank 7\n", ""),
        (["purity"], 1, "", '{"error": "invalid-input", "detail": "pass exactly one of --domain or --hypercube"}\n'),
    ], ids=["good", "bad"])
    def test_entry_points_exit_with_the_command_code(self, monkeypatch, capsys, run, argv, code, out, error):
        # `main` is the `zonotile` console script; `python -m zonotile.cli`
        # runs the module as `__main__`, which calls it
        monkeypatch.setattr(sys, "argv", ["zonotile", *argv])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == code
        assert capsys.readouterr() == (out, error)
