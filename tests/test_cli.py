import csv
import io

import pytest

from domrecon.cli import _build_parser, main


@pytest.fixture()
def p3(tmp_path):
    f = tmp_path / "p3.gr"
    f.write_text("p ds 3 2\ne 1 2\ne 2 3\n")
    return str(f)


@pytest.fixture()
def c6(tmp_path):
    f = tmp_path / "c6.gr"
    f.write_text(
        "p ds 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\n"
    )
    return str(f)


@pytest.fixture()
def p3_td(tmp_path):
    f = tmp_path / "p3.td"
    f.write_text("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_star_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "star", "--param", "3")
        assert code == 0
        assert out == "c gen star 3\np ds 4 3\ne 1 2\ne 1 3\ne 1 4\n"

    def test_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.gr"
        code, _, _ = run(
            capsys, "gen", "--family", "grid", "--param", "2", "3", "-o", str(target)
        )
        assert code == 0
        assert target.read_text().splitlines()[1] == "p ds 6 7"

    def test_mynhardt_td(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "mynhardt", "--param", "3", "--td"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "s td 7 4 10"
        assert lines[2] == "b 1 1 2 3 4"

    def test_param_count_checked(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "star")
        assert code == 1
        assert "takes 1 parameter(s), got 0" in err

    def test_td_requires_mynhardt(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "star", "--param", "3", "--td")
        assert code == 1
        assert "apply only to the mynhardt family" in err

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "bogus"])
        assert info.value.code == 1

    def test_td_pd_mutually_exclusive(self):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "mynhardt", "--param", "3", "--td", "--pd"])
        assert info.value.code == 1


class TestStats:
    def test_text(self, capsys, p3):
        code, out, _ = run(capsys, "stats", p3)
        assert code == 0
        assert out == (
            "n 3\nm 2\nconnected true\ngamma 1\ngamma-upper 2\nalpha 2\n"
            "min-dominating 2\nmax-minimal-dominating 1,3\nmax-independent 1,3\n"
        )

    def test_csv(self, capsys, p3):
        code, out, _ = run(capsys, "stats", p3, "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:4] == ["n", "m", "connected", "gamma"]
        assert rows[1] == ["3", "2", "true", "1", "2", "2", "2", "1,3", "1,3"]

    def test_limit_flag_beats_env(self, capsys, p3, monkeypatch):
        monkeypatch.setenv("DOMRECON_LIMIT", "2")
        code, _, err = run(capsys, "stats", p3)
        assert code == 3
        assert "limit:" in err
        code, _, _ = run(capsys, "stats", p3, "--limit", "3")
        assert code == 0

    def test_bad_env_limit(self, capsys, p3, monkeypatch):
        monkeypatch.setenv("DOMRECON_LIMIT", "lots")
        code, _, err = run(capsys, "stats", p3)
        assert code == 1
        assert "DOMRECON_LIMIT" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", str(tmp_path / "nope.gr"))
        assert code == 1
        assert "error:" in err


class TestTransform:
    def test_general_stdout(self, capsys, p3):
        code, out, _ = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "general",
        )
        assert code == 0
        assert out == (
            "c transform --method general\n"
            "c k 3 (Gamma 2 + alpha 2 - 1)\n"
            "c length 3 (bound 30)\n"
            "c max-size 3\n"
            "s tar 3 3\nd 1 3\n+ 2\n- 1\n- 3\n"
        )

    def test_roundtrip_through_verify(self, capsys, p3, tmp_path):
        seq_file = tmp_path / "out.tar"
        code, out, _ = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "general", "-o", str(seq_file),
        )
        assert code == 0
        assert "wrote" in out and "k=3 length=3 max-size=3" in out
        code, out, _ = run(capsys, "verify", p3, str(seq_file))
        assert code == 0
        assert out.startswith("valid: length=3 max_size=3 k=3")

    def test_general_k_override(self, capsys, p3):
        code, out, _ = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "general", "--k", "5",
        )
        assert code == 0
        assert "c k 5 (Gamma 2 + alpha 2 - 1 <= override)" in out

    def test_minor_sparse(self, capsys, tmp_path):
        f = tmp_path / "p6.gr"
        f.write_text("p ds 6 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n")
        code, out, _ = run(
            capsys, "transform", str(f), "--from", "1,3,5", "--to", "2,4,6",
            "--method", "minor-sparse", "--d", "2",
        )
        assert code == 0
        assert "c k 4 (Gamma 3 + d 2 - 1)" in out
        assert "c length 6 (bound 10)" in out

    def test_minor_sparse_honours_limit(self, capsys, tmp_path):
        # d > Gamma falls back to the general transform, whose exact
        # invariants must respect --limit like every other brute force
        f = tmp_path / "p10.gr"
        code, _, _ = run(
            capsys, "gen", "--family", "path", "--param", "10", "-o", str(f)
        )
        assert code == 0
        code, _, err = run(capsys, "stats", str(f), "--limit", "5")
        assert code == 3
        code, _, err = run(
            capsys, "transform", str(f), "--from", "2,5,8,10", "--to", "1,4,7,10",
            "--method", "minor-sparse", "--d", "6", "--gamma-upper", "4",
            "--limit", "5",
        )
        assert code == 3
        assert "limit:" in err

    def test_planar_shortcut_conflicts_with_d(self, capsys, p3):
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "minor-sparse", "--planar", "--d", "4",
        )
        assert code == 1
        assert "ambiguous" in err

    def test_minor_sparse_needs_density(self, capsys, p3):
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "minor-sparse",
        )
        assert code == 1
        assert "needs --d D or --planar" in err

    def test_flag_whitelist(self, capsys, p3, p3_td):
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "minor-sparse", "--d", "2", "--k", "9",
        )
        assert code == 1
        assert "--k does not apply to method minor-sparse" in err
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "general", "--gamma-upper", "2",
        )
        assert code == 1
        assert "--gamma-upper does not apply to method general" in err
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "general", "--td", p3_td,
        )
        assert code == 1
        assert "--td does not apply" in err

    def test_density_certificate_exit_code(self, capsys, c6):
        code, _, err = run(
            capsys, "transform", c6, "--from", "1,4", "--to", "2,5",
            "--method", "minor-sparse", "--d", "2", "--gamma-upper", "2",
        )
        assert code == 4
        assert "not 2-minor-sparse" in err
        assert "dense minor certificate, average degree >= 2:" in err
        assert "a 1: b 5 via x 6; b 2 via x 1" in err
        assert "a 4: b 5 via x 4; b 2 via x 3" in err

    def test_unreachable_exit_code(self, capsys, tmp_path):
        f = tmp_path / "k3.gr"
        f.write_text("p ds 3 3\ne 1 2\ne 1 3\ne 2 3\n")
        code, _, err = run(
            capsys, "transform", str(f), "--from", "1", "--to", "2",
            "--method", "general",
        )
        assert code == 4
        assert "assumption violated" in err and "frozen" in err

    def test_treewidth(self, capsys, p3, p3_td):
        code, out, _ = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth", "--td", p3_td,
        )
        assert code == 0
        assert "c k 4 (Gamma 2 + tw 1 + 1)" in out
        assert out.endswith("s tar 4 3\nd 1 3\n+ 2\n- 1\n- 3\n")

    def test_treewidth_needs_td(self, capsys, p3):
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth",
        )
        assert code == 1
        assert "needs --td FILE" in err

    def test_treewidth_min_ds_and_root(self, capsys, p3, p3_td, tmp_path):
        setfile = tmp_path / "minds.txt"
        setfile.write_text("c the only minimum dominating set\n2\n")
        code, _, _ = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth", "--td", p3_td,
            "--min-ds", str(setfile), "--root", "1",
        )
        assert code == 0

    def test_treewidth_rejects_wrong_min_ds(self, capsys, p3, p3_td, tmp_path):
        setfile = tmp_path / "minds.txt"
        setfile.write_text("1,3\n")
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth", "--td", p3_td, "--min-ds", str(setfile),
        )
        assert code == 1
        assert "min_ds has size 2 but gamma = 1" in err

    def test_treewidth_rejects_bad_root(self, capsys, p3, p3_td):
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth", "--td", p3_td, "--root", "9",
        )
        assert code == 1
        assert "not a bag id" in err

    def test_rejects_non_dominating_endpoint(self, capsys, p3):
        code, _, err = run(
            capsys, "transform", p3, "--from", "1", "--to", "2",
            "--method", "general",
        )
        assert code == 1
        assert "ds is not a dominating set" in err

    def test_rejects_out_of_range_vertex(self, capsys, p3):
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,9", "--to", "2",
            "--method", "general",
        )
        assert code == 1
        assert "--from mentions vertex 9 but the graph has 3" in err


class TestVerify:
    def test_invalid_sequence(self, capsys, p3, tmp_path):
        seq = tmp_path / "bad.tar"
        seq.write_text("s tar 3 3\nd 1 3\n+ 2\n- 2\n- 3\n")
        code, out, _ = run(capsys, "verify", p3, str(seq))
        assert code == 2
        assert out.startswith("invalid at step 3 (not-dominating)")

    def test_k_override_flags_sizes(self, capsys, p3, tmp_path):
        seq = tmp_path / "ok.tar"
        seq.write_text("s tar 3 3\nd 1 3\n+ 2\n- 1\n- 3\n")
        code, out, _ = run(capsys, "verify", p3, str(seq))
        assert code == 0
        code, out, _ = run(capsys, "verify", p3, str(seq), "--k", "2")
        assert code == 2
        assert "invalid at step 1 (size>k)" in out

    def test_rejects_out_of_range_vertex(self, capsys, p3, tmp_path):
        seq = tmp_path / "oor.tar"
        seq.write_text("s tar 3 1\nd 2\n+ 9\n")
        code, _, err = run(capsys, "verify", p3, str(seq))
        assert code == 1
        assert "sequence mentions vertex 9" in err

    def test_malformed_sequence(self, capsys, p3, tmp_path):
        seq = tmp_path / "broken.tar"
        seq.write_text("s tar 3 1\nd 1 3\n* 2\n")
        code, _, err = run(capsys, "verify", p3, str(seq))
        assert code == 1
        assert "line 3" in err


class TestOracle:
    def test_build_and_frozen(self, capsys, tmp_path):
        f = tmp_path / "star3.gr"
        f.write_text("p ds 4 3\ne 1 2\ne 1 3\ne 1 4\n")
        code, out, _ = run(capsys, "oracle", str(f), "--k", "3", "--frozen")
        assert code == 0
        assert out == (
            "k 3\nnodes 8\nedges 9\ncomponents 2\nconnected false\nfrozen 2,3,4\n"
        )

    def test_no_frozen_nodes(self, capsys, p3):
        code, out, _ = run(capsys, "oracle", p3, "--k", "3", "--frozen")
        assert code == 0
        assert "frozen none" in out

    def test_diameter_of_disconnected(self, capsys, p3):
        code, out, _ = run(capsys, "oracle", p3, "--k", "2", "--diameter")
        assert code == 0
        assert "diameter inf" in out
        assert "max-component-diameter 2" in out

    def test_distance(self, capsys, p3):
        code, out, _ = run(
            capsys, "oracle", p3, "--k", "3", "--distance", "1,3", "2"
        )
        assert code == 0
        assert "distance 3" in out

    def test_distance_across_components(self, capsys, p3):
        code, out, _ = run(
            capsys, "oracle", p3, "--k", "2", "--distance", "1,3", "2"
        )
        assert code == 0
        assert "distance inf" in out

    def test_scan_text(self, capsys, p3):
        code, out, _ = run(capsys, "oracle", p3, "--scan", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma 1"
        assert lines[1] == "gamma-upper 2"
        assert lines[2] == "k nodes edges components connected diameter"
        assert lines[3] == "1 1 0 1 true 0"
        assert lines[4] == "2 4 2 2 false inf"
        assert lines[5] == "3 5 5 1 true 3"
        assert lines[6] == "d0-empirical 3"

    def test_scan_csv(self, capsys, p3):
        code, out, _ = run(capsys, "oracle", p3, "--scan", "3", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "nodes", "edges", "components", "connected", "diameter"]
        assert rows[1] == ["1", "1", "0", "1", "true", "0"]
        assert rows[2] == ["2", "4", "2", "2", "false", "inf"]
        assert rows[3] == ["3", "5", "5", "1", "true", "3"]

    def test_limit(self, capsys, p3, monkeypatch):
        monkeypatch.setenv("DOMRECON_LIMIT", "2")
        code, _, err = run(capsys, "oracle", p3, "--k", "2")
        assert code == 3
        assert "limit:" in err

    @pytest.mark.parametrize(
        "flags,flag",
        [
            (("--distance", "1,3", "2"), "--distance"),
            (("--frozen",), "--frozen"),
            (("--diameter",), "--diameter"),
        ],
    )
    def test_scan_rejects_query_flags(self, capsys, p3, flags, flag):
        code, out, err = run(capsys, "oracle", p3, "--scan", "3", *flags)
        assert code == 1
        assert out == ""
        assert f"{flag} does not apply to --scan" in err

    def test_k_rejects_csv(self, capsys, p3):
        code, out, err = run(capsys, "oracle", p3, "--k", "3", "--csv")
        assert code == 1
        assert out == ""
        assert "--csv does not apply to --k" in err

    def test_mode_required(self, capsys, p3):
        with pytest.raises(SystemExit) as info:
            main(["oracle", p3])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main(["oracle", p3, "--k", "2", "--scan", "3"])
        assert info.value.code == 1


class TestRepeatedCalls:
    """main() reuses one parser per process; no option outlives its call."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_planar_then_d(self, capsys, tmp_path):
        f = tmp_path / "p6.gr"
        f.write_text("p ds 6 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n")
        common = ("transform", str(f), "--from", "1,3,5", "--to", "2,4,6",
                  "--method", "minor-sparse")
        code, out, _ = run(capsys, *common, "--planar")
        assert code == 0
        assert "c k 6 (Gamma 3 + d 4 - 1)" in out
        # a leftover --planar would make this call ambiguous
        code, out, err = run(capsys, *common, "--d", "2")
        assert (code, err) == (0, "")
        assert "c k 4 (Gamma 3 + d 2 - 1)" in out

    def test_k_then_scan_then_k(self, capsys, p3):
        code, out, _ = run(capsys, "oracle", p3, "--k", "3", "--frozen")
        assert code == 0
        assert out.startswith("k 3\nnodes 5\n")
        code, out, _ = run(capsys, "oracle", p3, "--scan", "3")
        assert code == 0
        assert out.splitlines()[:3] == [
            "gamma 1", "gamma-upper 2", "k nodes edges components connected diameter"
        ]
        # neither a leftover --scan nor a leftover --frozen may show here
        code, out, _ = run(capsys, "oracle", p3, "--k", "2")
        assert code == 0
        assert out == "k 2\nnodes 4\nedges 2\ncomponents 2\nconnected false\n"

    def test_usage_error_then_valid_call(self, capsys, p3):
        with pytest.raises(SystemExit) as info:
            main(["transform", p3, "--from", "1,3", "--to", "2", "--method", "bogus"])
        assert info.value.code == 1
        capsys.readouterr()
        code, out, _ = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "general",
        )
        assert code == 0
        assert out.startswith("c transform --method general\nc k 3 ")
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "bogus"])
        assert info.value.code == 1
        capsys.readouterr()
        code, out, _ = run(capsys, "gen", "--family", "star", "--param", "3")
        assert code == 0
        assert out == "c gen star 3\np ds 4 3\ne 1 2\ne 1 3\ne 1 4\n"
