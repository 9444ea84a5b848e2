"""End-to-end command tests: artifacts, exit codes, output formats."""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sicladder
from sicladder import cli
from sicladder import fiducials as fid
from sicladder import ladder
from sicladder.fiducials import SicFiducial

from oracles import perturbed

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    """One fiducial-find plus one climb, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliart")
    rc = cli.main(["fiducial-find", "--dim", "5", "--seed", "0",
                   "--out", str(root / "f5.json")])
    assert rc == 0
    rc = cli.main(["climb", "--input", str(root / "f5.json"),
                   "--restarts", "12", "--max-iters", "2000",
                   "--out", str(root / "climb15.json")])
    assert rc == 0
    return root


def _random_fiducial_file(path, d=5, seed=1):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    f = SicFiducial(d=d, vector=v / np.linalg.norm(v))
    cli.save_json(str(path), cli.fiducial_payload(f, provenance="test"))
    return str(path)


def _rows(out):
    """Certificate rows of verify's output: name -> pass or FAIL."""
    return {line.split()[0]: line.split()[-1] for line in out.splitlines()
            if line.split()[-1:] in (["pass"], ["FAIL"])}


class TestSerialization:
    def test_decimal_strings_are_fixed_points(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(size=64):
            s = cli._fmt(x)
            assert cli._fmt(float(s)) == s

    def test_fiducial_round_trip_is_byte_identical(self, art, tmp_path):
        src = art / "f5.json"
        kind, body, f = cli.load_artifact(str(src))
        assert kind == "fiducial"
        out = tmp_path / "again.json"
        cli.save_json(str(out), cli.fiducial_payload(f, provenance=body["provenance"]))
        assert out.read_bytes() == src.read_bytes()

    def test_solution_file_round_trips_with_source(self, art, tmp_path):
        src = art / "climb15-sic0.json"
        kind, body, f = cli.load_artifact(str(src))
        sdat = body["source"]
        sf = SicFiducial(d=int(sdat["dimension"]), vector=cli._unpairs(sdat["vector"]))
        out = tmp_path / "again.json"
        cli.save_json(str(out), cli.fiducial_payload(
            f, provenance=body["provenance"], source=sf))
        assert out.read_bytes() == src.read_bytes()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from((3, 5, 15)), seed=st.integers(0, 2 ** 32 - 1),
           symmetry=st.booleans(), eigenvalue=st.booleans(), source=st.booleans())
    def test_random_fiducial_round_trip_is_byte_identical(
            self, tmp_path_factory, d, seed, symmetry, eigenvalue, source):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        f = SicFiducial(d=d, vector=v / np.linalg.norm(v))
        if symmetry:
            f.symmetry = rng.integers(0, d, size=(2, 2))
            if eigenvalue:
                f.symmetry_eigenvalue = np.exp(2j * np.pi * rng.random())
        src = None
        if source:
            w = rng.normal(size=5) + 1j * rng.normal(size=5)
            src = SicFiducial(d=5, vector=w / np.linalg.norm(w))
        root = tmp_path_factory.mktemp("roundtrip")
        first, again = root / "roundtrip.json", root / "roundtrip-again.json"
        cli.save_json(str(first), cli.fiducial_payload(f, provenance="test", source=src))
        _, body, g = cli.load_artifact(str(first))
        sdat = body.get("source")
        src = None if sdat is None else SicFiducial(
            d=int(sdat["dimension"]), vector=cli._unpairs(sdat["vector"]))
        cli.save_json(str(again), cli.fiducial_payload(
            g, provenance=body["provenance"], source=src))
        assert again.read_bytes() == first.read_bytes()

    def test_unnormalized_vector_rejected_on_load(self, tmp_path):
        p = tmp_path / "bad.json"
        rows = [["2", "0"]] + [["0", "0"]] * 4
        p.write_text(json.dumps({"kind": "fiducial", "schema_version": 1,
                                 "dimension": 5, "vector": rows}))
        assert cli.main(["verify", "--input", str(p)]) == 1

    def test_dimension_field_must_match_length(self, tmp_path):
        p = tmp_path / "bad.json"
        rows = [["1", "0"]] + [["0", "0"]] * 4
        p.write_text(json.dumps({"kind": "fiducial", "schema_version": 1,
                                 "dimension": 7, "vector": rows}))
        assert cli.main(["verify", "--input", str(p)]) == 1

    def test_garbage_json_exits_one(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.main(["verify", "--input", str(p)]) == 1


class TestFailClosed:
    """Malformed artifacts are rejected with exit 1 before any table is printed."""

    @staticmethod
    def _edited(src, dst, edit):
        body = json.loads(src.read_text())
        edit(body)
        dst.write_text(json.dumps(body))
        return str(dst)

    @pytest.mark.parametrize("command", ["verify", "report-overlaps"])
    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_vector_entry(self, art, tmp_path, capsys, command, entry):
        def edit(body):
            body["vector"][2][1] = entry
        p = self._edited(art / "f5.json", tmp_path / "bad.json", edit)
        assert cli.main([command, "--input", p]) == 1
        captured = capsys.readouterr()
        assert "non-finite" in captured.err
        assert "nan" not in captured.out.lower()

    @pytest.mark.parametrize("command", ["verify", "report-overlaps"])
    @pytest.mark.parametrize("version", [2, 0, "1", None])
    def test_unknown_schema_version(self, art, tmp_path, capsys, command, version):
        def edit(body):
            if version is None:
                del body["schema_version"]
            else:
                body["schema_version"] = version
        p = self._edited(art / "f5.json", tmp_path / "bad.json", edit)
        assert cli.main([command, "--input", p]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_non_finite_embedded_source(self, art, tmp_path, capsys):
        def edit(body):
            body["source"]["vector"][0][0] = "nan"
        p = self._edited(art / "climb15-sic0.json", tmp_path / "bad.json", edit)
        assert cli.main(["verify", "--input", p]) == 1
        assert "source vector has a non-finite entry" in capsys.readouterr().err

    def test_non_finite_climb_report_solution(self, art, tmp_path, capsys):
        def edit(body):
            body["branches"][1]["solutions"][0]["vector"][3][1] = "nan"
        p = self._edited(art / "climb15.json", tmp_path / "bad.json", edit)
        assert cli.main(["verify", "--input", p]) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [None, "fiducials"])
    def test_unknown_kind(self, art, tmp_path, capsys, kind):
        def edit(body):
            if kind is None:
                del body["kind"]
            else:
                body["kind"] = kind
        p = self._edited(art / "f5.json", tmp_path / "bad.json", edit)
        assert cli.main(["verify", "--input", p]) == 1
        captured = capsys.readouterr()
        assert "unknown artifact kind" in captured.err
        assert captured.out == ""

    def test_embedded_source_of_wrong_length(self, art, tmp_path, capsys):
        def edit(body):
            body["source"]["vector"].append(["0", "0"])   # norm still 1
        p = self._edited(art / "climb15.json", tmp_path / "bad.json", edit)
        assert cli.main(["verify", "--input", p]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_climb_solution_of_wrong_length(self, art, tmp_path, capsys):
        def edit(body):
            body["branches"][1]["solutions"][0]["vector"].append(["0", "0"])   # norm still 1
        p = self._edited(art / "climb15.json", tmp_path / "bad.json", edit)
        assert cli.main(["verify", "--input", p]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: dimension field 15 does not match"
                                " branch 1 solution 0 vector length 16\n")
        assert captured.out == ""

    def test_climb_solution_not_unit_norm(self, art, tmp_path, capsys):
        def edit(body):
            sol = body["branches"][1]["solutions"][0]
            sol["vector"] = [[repr(2 * float(a)), repr(2 * float(b))] for a, b in sol["vector"]]
        p = self._edited(art / "climb15.json", tmp_path / "bad.json", edit)
        assert cli.main(["verify", "--input", p]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: stored branch 1 solution 0 vector"
                                " is not normalized to 1e-12\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["climb", "report-overlaps", "verify"])
    def test_even_dimension_is_refused_at_load(self, tmp_path, capsys, command):
        # heisenberg's conventions hold for odd d only, so no command reads
        # an 8-dimensional fiducial file past the load
        p = _random_fiducial_file(tmp_path / "even.json", d=8)
        extra = ["--out", str(tmp_path / "c.json")] if command == "climb" else []
        assert cli.main([command, "--input", p, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: odd dimension >= 3 required, got 8\n"
        assert captured.out == ""
        assert not (tmp_path / "c.json").exists()

    def test_non_object_json(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert cli.main(["report-overlaps", "--input", str(p)]) == 1

    @pytest.mark.parametrize("command", ["climb", "report-overlaps", "verify"])
    def test_embedded_source_not_unit_norm(self, art, tmp_path, capsys, command):
        # every command refuses the file at load, not only verify
        def edit(body):
            body["source"]["vector"] = [[repr(2 * float(a)), repr(2 * float(b))]
                                        for a, b in body["source"]["vector"]]
        p = self._edited(art / "climb15-sic0.json", tmp_path / "bad.json", edit)
        extra = ["--out", str(tmp_path / "c.json")] if command == "climb" else []
        assert cli.main([command, "--input", p, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: stored source vector is not normalized to 1e-12\n"
        assert captured.out == ""
        assert not (tmp_path / "c.json").exists()


class TestCertificateRows:
    LEVELS = ("sic", "design", "alignment", "etf")

    @staticmethod
    def _values(rows):
        return [(name, err, passed, None if M is None else M.tolist())
                for name, err, passed, M in rows]

    def test_report_rows_are_the_solution_files_rows(self, art, capsys):
        # one row function for both artifact kinds: the report's rows are
        # each promoted file's rows under its branch prefix, the branch's
        # equator row, and the source's Naimark row once
        capsys.readouterr()
        _, body, branches, source = cli._load_artifact(str(art / "climb15.json"))
        report = ladder.certificate_rows(
            None, source, [(b["generator"], sols) for b, sols in zip(body["branches"], branches)],
            self.LEVELS)
        expected, naimark, n = [], set(), 0
        for bi, sols in enumerate(branches):
            for si in range(len(sols)):
                _, _, f, src = cli._load_artifact(str(art / f"climb15-sic{n}.json"))
                rows = self._values(ladder.certificate_rows(f, src, (), self.LEVELS))
                assert rows[-1][0] == "etf-naimark"
                naimark.add(rows[-1])
                expected += [(f"branch{bi}-sic{si}:{name}", *rest) for name, *rest in rows[:-1]]
                n += 1
            if len(sols) == 3:
                expected.append((f"branch{bi}:equator", 0.0, True, None))
        assert n == 3 and len(naimark) == 1
        assert self._values(report) == expected + [naimark.pop()]
        assert capsys.readouterr().out == ""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(exponent=st.floats(-13, -7), which=st.integers(-1, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_perturbed_report_keeps_its_rows(self, art, tmp_path_factory, exponent, which, seed):
        # a refused certificate fails its row: a source or solution off its
        # SIC by s eta changes row values, never the rows or a raise
        def rows(path):
            _, body, branches, source = cli._load_artifact(str(path))
            pairs = [(b["generator"], sols) for b, sols in zip(body["branches"], branches)]
            return [name for name, *_ in ladder.certificate_rows(None, source, pairs, self.LEVELS)]

        body = json.loads((art / "climb15.json").read_text())
        sols = [sol for b in body["branches"] for sol in b["solutions"]]
        entry = body["source"] if which < 0 else sols[which]
        entry["vector"] = cli._pairs(perturbed(cli._unpairs(entry["vector"]), 10 ** exponent, seed))
        p = tmp_path_factory.mktemp("perturbed") / "climb15.json"
        cli.save_json(str(p), body)
        assert rows(p) == rows(art / "climb15.json")


class TestFiducialFind:
    def test_written_fiducial_is_tiny_defect(self, art):
        body = json.loads((art / "f5.json").read_text())
        assert body["dimension"] == 5
        assert float(body["defect"]) <= 1e-16
        _, _, f = cli.load_artifact(str(art / "f5.json"))
        assert fid.verify_sic(f)
        assert "symmetry" in body

    def test_dim7_with_extra_restarts(self, tmp_path):
        out = tmp_path / "f7.json"
        rc = cli.main(["fiducial-find", "--dim", "7", "--restarts", "50",
                       "--out", str(out)])
        assert rc == 0
        _, body, f = cli.load_artifact(str(out))
        assert float(body["defect"]) <= 1e-16
        assert np.abs(f.vector.imag).max() < 1e-9

    def test_even_dimension_is_an_argument_error(self, tmp_path):
        with pytest.raises(SystemExit) as ex:
            cli.main(["fiducial-find", "--dim", "4", "--out", str(tmp_path / "x")])
        assert ex.value.code == 1

    def test_dim9(self, tmp_path):
        out = tmp_path / "f9.json"
        assert cli.main(["fiducial-find", "--dim", "9", "--out", str(out)]) == 0
        assert float(json.loads(out.read_text())["defect"]) <= 1e-16


class TestClimb:
    def test_report_and_three_solution_files(self, art):
        body = json.loads((art / "climb15.json").read_text())
        assert body["kind"] == "climb-report"
        assert body["target_dimension"] == 15
        _, _, f5 = cli.load_artifact(str(art / "f5.json"))
        assert body["source"]["sha256"] == cli.vector_digest(f5.vector)
        outcomes = [b["outcome"] for b in body["branches"] if b["feasible"]]
        assert outcomes == ["empty branch", "solutions"]
        for n in range(3):
            assert (art / f"climb15-sic{n}.json").exists()
        assert not (art / "climb15-sic3.json").exists()

    def test_solution_files_reverify_alone(self, art):
        for n in range(3):
            _, body, f = cli.load_artifact(str(art / f"climb15-sic{n}.json"))
            assert f.d == 15
            assert fid.verify_sic(f)
            assert float(body["defect"]) <= 1e-12
            assert body["source"]["dimension"] == 5

    def test_wrong_sector_exits_two_but_reports(self, art, tmp_path):
        out = tmp_path / "empty.json"
        rc = cli.main(["climb", "--input", str(art / "f5.json"),
                       "--sector", "1", "--restarts", "2", "--max-iters", "500",
                       "--out", str(out)])
        assert rc == 2
        body = json.loads(out.read_text())
        assert all(b["outcome"] == "not searched" for b in body["branches"])
        assert all("infeasible" in b["error"] for b in body["branches"])

    def test_unbuildable_families_are_not_searched(self, art, tmp_path, capsys):
        # the 5 -> 15 pairings have two blocks; the conjugate family needs three
        out = tmp_path / "conj.json"
        rc = cli.main(["climb", "--input", str(art / "f5.json"), "--conjugate-pairing",
                       "--out", str(out)])
        assert rc == 2
        branches = json.loads(out.read_text())["branches"]
        assert [b["feasible"] for b in branches] == [True, True]
        assert all(b["outcome"] == "not searched" for b in branches)
        lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("generator")]
        assert len(lines) == 2
        assert all(x.endswith(": not searched (conjugate pairing needs three singleton"
                              " blocks, got [1, 1])") for x in lines)

    def test_exhausted_budget_is_not_an_empty_branch(self, tmp_path, capsys):
        # two 8-parameter Nelder-Mead branches cut at 200 iterations find
        # nothing, while the committed sic195.json lies on branch 1
        out = tmp_path / "c195.json"
        rc = cli.main(["climb", "--input", str(INPUTS / "f15.json"), "--restarts", "1",
                       "--max-iters", "200", "--seed", "2", "--out", str(out)])
        assert rc == 2
        branches = json.loads(out.read_text())["branches"]
        assert [(b["n_params"], b["outcome"]) for b in branches] == [(8, "budget exhausted")] * 2
        lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("generator")]
        assert len(lines) == 2 and all(x.endswith(": budget exhausted") for x in lines)

    def test_input_failing_the_sic_row_is_refused_at_the_gate(self, art, tmp_path, capsys):
        # its squared-overlap residuals pass 1e-8 (largest 7.3e-9), its sic
        # row (2.2e-8) does not: one verdict for both
        _, _, f5 = cli.load_artifact(str(art / "f5.json"))
        rng = np.random.default_rng(0)
        v = f5.vector + 5e-9 * (rng.normal(size=5) + 1j * rng.normal(size=5))
        p = tmp_path / "near.json"
        cli.save_json(str(p), cli.fiducial_payload(
            SicFiducial(d=5, vector=v / np.linalg.norm(v)), provenance="test"))
        assert cli.main(["verify", "--input", str(p), "--level", "sic"]) == 1
        assert _rows(capsys.readouterr().out) == {"sic": "FAIL"}
        rc = cli.main(["climb", "--input", str(p), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: input does not verify as a SIC fiducial\n"

    def test_third_root_sector_on_order6_labels_exits_one(self, tmp_path, capsys):
        f15 = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "f15.json"
        rc = cli.main(["climb", "--input", str(f15), "--sector", "w",
                       "--restarts", "1", "--max-iters", "40",
                       "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "sixth-root" in capsys.readouterr().err

    def test_unused_search_options_are_noted(self, art, tmp_path, capsys):
        # the 5 -> 15 families have one parameter: solved, not searched
        for extra, noted in ((["--restarts", "3"], True), ([], False)):
            rc = cli.main(["climb", "--input", str(art / "f5.json"), *extra,
                           "--out", str(tmp_path / "o.json")])
            assert rc == 0
            assert ("note: --restarts not used" in capsys.readouterr().err) == noted

    def test_non_sic_input_exits_one(self, tmp_path, capsys):
        p = _random_fiducial_file(tmp_path / "rand.json")
        rc = cli.main(["climb", "--input", p, "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: input does not verify as a SIC fiducial\n"

    def test_report_is_not_a_climb_input(self, art, tmp_path, capsys):
        p = str(art / "climb15.json")
        rc = cli.main(["climb", "--input", p, "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {p} is not a fiducial file\n"

    def test_dim15_input_routes_to_refined_family(self, art, tmp_path):
        # auto-detection: a source above the base rungs with a scalar
        # involution gets the order-6 labels, hence 8 parameters per branch;
        # a token budget keeps this a plumbing test, not a search
        out = tmp_path / "c195.json"
        rc = cli.main(["climb", "--input", str(art / "climb15-sic0.json"),
                       "--restarts", "1", "--max-iters", "40",
                       "--out", str(out)])
        body = json.loads(out.read_text())
        searched = [b for b in body["branches"] if b["feasible"]]
        assert searched and all(b["n_params"] == 8 for b in searched)
        assert rc in (0, 2)


class TestVerify:
    def test_ladder_output_all_levels_pass(self, art, capsys):
        rc = cli.main(["verify", "--input", str(art / "climb15-sic0.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alignment reindexing M = " in out
        for name in ("sic", "design", "alignment", "etf-rank", "etf-frame"):
            assert name in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name, row", [("climb15-sic0.json", "sic"),
                                           ("climb15.json", "branch1-sic0:sic")])
    def test_row_bytes_do_not_depend_on_the_other_rows(self, art, capsys, name, row):
        def line(level):
            assert cli.main(["verify", "--input", str(art / name), "--level", level]) == 0
            return next(x for x in capsys.readouterr().out.splitlines()
                        if x.split()[0] == row)
        assert line("sic") == line("all")

    def test_rung195_gets_the_full_design_row(self, capsys):
        rc = cli.main(["verify", "--input", str(INPUTS / "sic195.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert _rows(out)["design"] == "pass"
        assert "design(potential)" not in out

    def test_random_vector_fails_sic_check(self, tmp_path, capsys):
        p = _random_fiducial_file(tmp_path / "rand.json")
        rc = cli.main(["verify", "--input", p, "--level", "sic"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_alignment_needs_embedded_source(self, art, capsys):
        rc = cli.main(["verify", "--input", str(art / "f5.json"),
                       "--level", "alignment"])
        assert rc == 1
        assert "embedded source" in capsys.readouterr().err

    def test_etf_needs_ladder_dimension(self, art, capsys):
        rc = cli.main(["verify", "--input", str(art / "f5.json"),
                       "--level", "etf"])
        assert rc == 1
        assert "not of the laddered form" in capsys.readouterr().err

    def test_climb_report_is_self_contained(self, art, capsys):
        rc = cli.main(["verify", "--input", str(art / "climb15.json")])
        out = capsys.readouterr().out
        assert rc == 0
        for si in range(3):
            assert f"branch1-sic{si}:sic" in out
        assert "FAIL" not in out

    def test_level_etf_loads_the_embedded_source(self, art, capsys):
        rc = cli.main(["verify", "--input", str(art / "climb15-sic0.json"),
                       "--level", "etf"])
        rows = _rows(capsys.readouterr().out)
        assert rc == 0
        assert list(rows) == ["etf-rank", "etf-frame", "etf-naimark"]
        assert all(v == "pass" for v in rows.values())

    def test_level_etf_without_a_source_has_no_naimark_row(self, art, tmp_path, capsys):
        body = json.loads((art / "climb15-sic0.json").read_text())
        del body["source"]
        p = tmp_path / "nosource.json"
        cli.save_json(str(p), body)
        rc = cli.main(["verify", "--input", str(p), "--level", "etf"])
        rows = _rows(capsys.readouterr().out)
        assert rc == 0
        assert rows == {"etf-rank": "pass", "etf-frame": "pass"}

    def test_non_sic_source_fails_the_naimark_row(self, art, tmp_path, capsys):
        body = json.loads((art / "climb15-sic0.json").read_text())
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        body["source"]["vector"] = cli._pairs(e0)
        p = tmp_path / "badsource.json"
        cli.save_json(str(p), body)
        rc = cli.main(["verify", "--input", str(p)])
        out = capsys.readouterr().out
        assert rc == 1
        assert _rows(out)["etf-naimark"] == "FAIL"
        assert "inf" in next(line for line in out.splitlines()
                             if line.startswith("etf-naimark"))

    @staticmethod
    def _verify_edited(art, tmp_path, capsys, name, edit):
        """verify's exit code and rows (name -> [error, verdict]) on an
        edited copy of an artifact, and the row names of the original."""
        assert cli.main(["verify", "--input", str(art / name)]) == 0
        names = list(_rows(capsys.readouterr().out))
        body = json.loads((art / name).read_text())
        edit(body)
        p = tmp_path / name
        cli.save_json(str(p), body)
        rc = cli.main(["verify", "--input", str(p)])
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()
                if line.split()[-1:] in (["pass"], ["FAIL"])}
        return rc, names, rows

    def test_source_off_unitarity_fails_the_naimark_row(self, art, tmp_path, capsys):
        # the source passes the lift's SIC gate, but its reflection is off
        # unitarity by more than the eigensolver accepts
        _, _, f5 = cli.load_artifact(str(art / "f5.json"))
        def edit(body):
            body["source"]["vector"] = cli._pairs(perturbed(f5.vector, 1e-10, seed=0))
        rc, names, rows = self._verify_edited(art, tmp_path, capsys, "climb15-sic0.json", edit)
        assert rc == 1 and list(rows) == names
        assert rows["etf-naimark"] == ["inf", "FAIL"]

    def test_singular_generator_fails_the_equator_row(self, art, tmp_path, capsys):
        body = json.loads((art / "climb15.json").read_text())
        bi = next(i for i, b in enumerate(body["branches"]) if len(b["solutions"]) == 3)
        def edit(body):
            body["branches"][bi]["generator"] = [[1, 1], [1, 1]]
        rc, names, rows = self._verify_edited(art, tmp_path, capsys, "climb15.json", edit)
        assert rc == 1 and list(rows) == names
        assert rows[f"branch{bi}:equator"] == ["inf", "FAIL"]

    def test_source_from_another_rung_fails_the_alignment_row(self, art, f7, tmp_path, capsys):
        def edit(body):
            body["source"] = {"dimension": 7, "vector": cli._pairs(f7.vector)}
        rc, names, rows = self._verify_edited(art, tmp_path, capsys, "climb15-sic0.json", edit)
        assert rc == 1 and list(rows) == names
        assert rows["alignment"] == ["inf", "FAIL"]

    def test_census_report_has_four_equator_rows(self, art, tmp_path, capsys):
        out = tmp_path / "census.json"
        assert cli.main(["climb", "--input", str(art / "f5.json"),
                         "--try-both-generators", "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out)])
        rows = _rows(capsys.readouterr().out)
        assert rc == 0
        equator = [v for name, v in rows.items() if name.endswith(":equator")]
        assert equator == ["pass"] * 4
        assert rows["etf-naimark"] == "pass"

    def test_swapped_solution_fails_the_equator_row(self, art, tmp_path, capsys):
        body = json.loads((art / "climb15.json").read_text())
        bi = next(i for i, b in enumerate(body["branches"]) if len(b["solutions"]) == 3)
        v = [1, 1j] @ np.random.default_rng(3).normal(size=(2, 15))
        body["branches"][bi]["solutions"][2]["vector"] = cli._pairs(v / np.linalg.norm(v))
        p = tmp_path / "swapped.json"
        cli.save_json(str(p), body)
        rc = cli.main(["verify", "--input", str(p)])
        rows = _rows(capsys.readouterr().out)
        assert rc == 1
        assert rows[f"branch{bi}:equator"] == "FAIL"

    def test_another_generator_fails_the_equator_row(self, art, tmp_path, capsys):
        # the row tests the branch's own generator, not every order-3 element
        body = json.loads((art / "climb15.json").read_text())
        bi = next(i for i, b in enumerate(body["branches"]) if len(b["solutions"]) == 3)
        assert body["branches"][bi]["generator"] != [[0, 1], [2, 2]]
        body["branches"][bi]["generator"] = [[0, 1], [2, 2]]
        p = tmp_path / "regenerated.json"
        cli.save_json(str(p), body)
        rc = cli.main(["verify", "--input", str(p), "--level", "alignment"])
        rows = _rows(capsys.readouterr().out)
        assert rc == 1
        assert rows[f"branch{bi}:equator"] == "FAIL"


class TestReportOverlaps:
    def test_csv_shape_and_origin_row(self, art, capsys):
        rc = cli.main(["report-overlaps", "--input", str(art / "f5.json")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "i,j,re,im,modulus"
        assert lines[1] == "0,0,1,0,1"
        assert len(lines) == 1 + 25
        for row in lines[1:]:
            assert abs(float(row.split(",")[4]) - 1) < 1e-8

    def test_json_format(self, art, capsys):
        rc = cli.main(["report-overlaps", "--input", str(art / "f5.json"),
                       "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(rows) == 25
        assert set(rows[0]) == {"i", "j", "re", "im", "modulus"}

    def test_subgroup_phases_square_the_source_table(self, art, capsys):
        # the surviving big-side sector carries minus the squared source phases
        rc = cli.main(["report-overlaps", "--input", str(art / "climb15-sic0.json"),
                       "--subgroup", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 1 + 25
        got = []
        for row in lines[1:]:
            i, j, re, im, _ = row.split(",")
            if (i, j) != ("0", "0"):
                got.append(complex(float(re), float(im)))
        _, _, f5 = cli.load_artifact(str(art / "f5.json"))
        t5 = fid.overlap_phases(f5).phases
        want = [-(t5[i, j] ** 2) for i in range(5) for j in range(5)
                if (i, j) != (0, 0)]
        a = np.sort(np.angle(np.array(got)))
        b = np.sort(np.angle(np.array(want)))
        assert np.abs(a - b).max() < 1e-8

    def test_wrong_kind_exits_one(self, art, capsys):
        p = str(art / "climb15.json")
        assert cli.main(["report-overlaps", "--input", p]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {p} is not a fiducial file\n"
        assert captured.out == ""


class TestSeedEnvironment:
    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("SICLADDER_SEED", "7")
        args = cli.build_parser().parse_args(
            ["fiducial-find", "--dim", "5", "--out", "x"])
        assert args.seed == 7

    def test_unset_means_zero(self, monkeypatch):
        monkeypatch.delenv("SICLADDER_SEED", raising=False)
        args = cli.build_parser().parse_args(
            ["climb", "--input", "a", "--out", "b"])
        assert args.seed == 0

def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert sicladder.__version__ == meta["project"]["version"]
