import json

import pytest

from zonotile import bitsets as bs
from zonotile import jsonio
from zonotile.cli import cmd
from zonotile.combi import from_w_collection, spectrum
from zonotile.flips import interval_combi
from zonotile.patterns import boundary_pattern
from zonotile.render import render_svg
from zonotile.rhombus import minimal_tiling
from zonotile.separation import (
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
)

M = bs.mask_of


class TestJsonRoundTrips:
    def test_family(self):
        fam = interval_collection(4)
        assert jsonio.family_from_json(jsonio.family_to_json(fam)) == fam

    def test_tiling(self):
        tiling = minimal_tiling(4)
        assert jsonio.tiling_from_json(jsonio.tiling_to_json(tiling)) == tiling

    def test_combi_all_n4(self):
        for fam in enumerate_maximal(hypercube_domain(4), "weak").maximal_collections:
            combi = from_w_collection(fam, check_input=False)
            assert jsonio.combi_from_json(jsonio.combi_to_json(combi)) == combi

    def test_pattern(self):
        pat = boundary_pattern(3)
        assert jsonio.pattern_from_json(jsonio.pattern_to_json(pat)) == pat

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
        lensy = next(
            from_w_collection(f, check_input=False)
            for f in enumerate_maximal(hypercube_domain(4), "weak").maximal_collections
            if from_w_collection(f, check_input=False).lenses
        )
        svg = render_svg(lensy)
        assert svg.count("<polygon") == len(lensy.lenses) == 1

    def test_pattern_render_dashed(self):
        svg = render_svg(boundary_pattern(3))
        assert "stroke-dasharray" in svg

    def test_quasi_combi_render(self):
        from zonotile.combi import from_w_collection
        from zonotile.patterns import CyclicPattern, split_quasi

        combi = next(
            from_w_collection(f, check_input=False)
            for f in enumerate_maximal(hypercube_domain(4), "weak").maximal_collections
            if from_w_collection(f, check_input=False).lenses
        )
        lens = sorted(combi.lenses)[0]
        pat = CyclicPattern(4, [lens.left, lens.right] + list(reversed(lens.upper))[1:-1])
        inner, outer = split_quasi(combi, pat)
        svg = render_svg(outer)
        assert svg == render_svg(outer)
        assert "<polygon" in svg

    def test_tiling_render_through_cli(self, tmp_path):
        tiling = minimal_tiling(3)
        tiling_file = tmp_path / "t.json"
        tiling_file.write_text(json.dumps(jsonio.tiling_to_json(tiling)))
        svg_file = tmp_path / "t.svg"
        assert cmd(["render", "--tiling", str(tiling_file), "--out", str(svg_file)]) == 0
        assert svg_file.read_text() == render_svg(tiling)
        assert svg_file.read_text().count("<line") == len(tiling.edges()) == 9
        bare = tmp_path / "bare.svg"
        assert cmd(["render", "--tiling", str(tiling_file), "--no-labels", "--out", str(bare)]) == 0
        assert bare.read_text() == render_svg(tiling, labels=False)
        assert "<text" not in bare.read_text()

    def test_pattern_render_to_stdout(self, tmp_path, capsys):
        pattern = boundary_pattern(3)
        pat_file = tmp_path / "pat.json"
        pat_file.write_text(json.dumps(jsonio.pattern_to_json(pattern)))
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
        ],
        ids=["members-not-a-list", "top-level-list", "float-element", "bool-n", "huge-element", "deep-nesting"],
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

    def test_expand_illegal_path_names_rule(self, tmp_path, capsys):
        combi_file = tmp_path / "c.json"
        combi_file.write_text(json.dumps(jsonio.combi_to_json(interval_combi(3))))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": [[], [1]]}))
        assert cmd(["expand", "--combi", str(combi_file), "--path", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "P1" in err["detail"]

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
        high = from_w_collection(
            enumerate_maximal(hypercube_domain(3), "weak").maximal_collections[1],
            check_input=False,
        )
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

    def test_pattern_commands(self, tmp_path, capsys):
        pat_file = tmp_path / "pat.json"
        pat_file.write_text(json.dumps(jsonio.pattern_to_json(boundary_pattern(3))))
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

    def test_verify_report_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--paper-suite", "--max-n", "3", "--seed", "7", "--samples", "40"]
        assert cmd(args + ["--out", str(out1)]) == 0
        assert cmd(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
