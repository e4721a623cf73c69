import csv
import io

import pytest

from domrecon import cli, oracle
from domrecon.cli import _build_parser, main
from domrecon.general import UnreachableError
from domrecon.graphs import Graph, GraphFormatError, LimitError, format_graph
from domrecon.instances import (
    gen_grid,
    gen_mynhardt,
    gen_path,
    gen_star,
    gen_suzuki_planar,
)
from domrecon.minor_sparse import DensityEntry, DensityWitness, NotMinorSparseError
from domrecon.sequences import SequenceFormatError
from domrecon.treewidth import DecompositionError, SweepError


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


class TestExitCodes:
    """main maps each exception a command raises to an exit code and a
    stderr text; here stats raises it from its first file read."""

    CASES = [
        (GraphFormatError("bad edge", 3), 1, "error: line 3: bad edge\n"),
        (SequenceFormatError("bad move", 2), 1, "error: line 2: bad move\n"),
        (DecompositionError("missing 's td' header"), 1, "error: missing 's td' header\n"),
        (LimitError("too big"), 3, "limit: too big\n"),
        (
            NotMinorSparseError(
                2, DensityWitness(2, (DensityEntry(0, (4, 1), (5, 0)),)), {0}, {4}
            ),
            4,
            "assumption violated: no swap exists and the search certifies a"
            " bipartite minor of average degree >= 2; the graph is not"
            " 2-minor-sparse\ndense minor certificate, average degree >= 2:\n"
            "  a 1: b 5 via x 6; b 2 via x 1\n",
        ),
        (UnreachableError("frozen"), 4, "assumption violated: frozen\n"),
        (SweepError("bag 2"), 4, "assumption violated: bag 2\n"),
        (ValueError("bad value"), 1, "error: bad value\n"),
        (OSError("no file"), 1, "error: no file\n"),
        (RuntimeError("broken"), 4, "assumption violated: broken\n"),
    ]

    @pytest.mark.parametrize(
        "exc, code, err", CASES, ids=[type(exc).__name__ for exc, _, _ in CASES]
    )
    def test_exception_to_exit(self, capsys, monkeypatch, p3, exc, code, err):
        def raising(path):
            raise exc

        monkeypatch.setattr(cli, "_read", raising)
        assert run(capsys, "stats", p3) == (code, "", err)


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

    @pytest.mark.parametrize(
        "method",
        [
            ("--method", "general"),
            ("--method", "minor-sparse", "--d", "2"),
            ("--method", "treewidth", "--td", "missing.td"),
        ],
        ids=["general", "minor-sparse", "treewidth"],
    )
    def test_header_over_the_limit_parses_no_graph(
        self, capsys, tmp_path, monkeypatch, method
    ):
        # each method runs exact_invariants here, so the header's n is
        # refused before the graph (or the decomposition) is read
        f = tmp_path / "big.gr"
        f.write_text("p ds 1000000 0\n")

        def forbidden(text):
            raise AssertionError("the graph was parsed")

        monkeypatch.setattr(cli, "parse_graph", forbidden)
        assert run(capsys, "transform", str(f), "--from", "1", "--to", "2", *method) == (
            3,
            "",
            "limit: exact_invariants needs n <= 24, got 1000000\n",
        )

    @pytest.mark.parametrize(
        "n, edges, start, end, d, length",
        [
            (2, [(1, 2)], "1", "1,2", "2", 3),
            (
                4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
                "1,2,4", "1,3", "3", 5,
            ),
        ],
    )
    def test_minor_sparse_fallback_bound(
        self, capsys, tmp_path, n, edges, start, end, d, length
    ):
        # Gamma = 1 < d: the general transform runs, so its 10 n bound applies
        f = tmp_path / "k.gr"
        lines = [f"p ds {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "transform", str(f), "--from", start, "--to", end,
            "--method", "minor-sparse", "--d", d,
        )
        assert code == 0
        assert f"c length {length} (bound {10 * n})" in out

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

    def test_density_certificate_with_the_true_gamma(self, capsys, tmp_path):
        # mynhardt(3) has Gamma = 3, found by the CLI itself: no understated
        # certificate is needed for the method to fail honestly at d = 2
        graph, out = tmp_path / "m3.gr", tmp_path / "m3.seq"
        assert run(capsys, "gen", "--family", "mynhardt", "--param", "3", "-o", str(graph))[0] == 0
        code, stdout, err = run(
            capsys, "transform", str(graph), "--from", "1,5,8", "--to", "2,3,4",
            "--method", "minor-sparse", "--d", "2", "-o", str(out),
        )
        assert (code, stdout) == (4, "")
        assert err == (
            "assumption violated: no swap exists and the search certifies a"
            " bipartite minor of average degree >= 2; the graph is not"
            " 2-minor-sparse\ndense minor certificate, average degree >= 2:\n"
            "  a 5: b 4 via x 7; b 3 via x 6\n"
            "  a 8: b 4 via x 10; b 3 via x 9\n"
        )
        assert not out.exists()

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

    def test_treewidth_trusted_min_ds_warns_in_one_line(self, capsys, p3, p3_td, tmp_path):
        setfile = tmp_path / "minds.txt"
        setfile.write_text("2\n")
        code, out, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth", "--td", p3_td, "--gamma-upper", "2",
            "--min-ds", str(setfile), "--limit", "2",
        )
        assert code == 0
        assert out.endswith("s tar 4 3\nd 1 3\n+ 2\n- 1\n- 3\n")
        warning = (
            "warning: n = 3 exceeds the brute-force limit;"
            " trusting that min_ds is minimum\n"
        )
        assert err == warning
        # the warning is printed also when the transform then fails
        code, _, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth", "--td", p3_td, "--gamma-upper", "1",
            "--min-ds", str(setfile), "--limit", "2",
        )
        assert code == 1
        assert err.startswith(warning + "error: cannot shrink to 1")

    def test_treewidth_understated_gamma_upper(self, capsys, p3, p3_td):
        code, out, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", "treewidth", "--td", p3_td, "--gamma-upper", "1",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: cannot shrink to 1: greedy minimalization stops at size 2;"
            " is gamma_upper the true upper domination number?\n"
        )

    @pytest.mark.parametrize("gamma_upper", ["0", "-1"])
    @pytest.mark.parametrize("method", ["treewidth", "minor-sparse"])
    def test_nonpositive_gamma_upper(self, capsys, p3, p3_td, method, gamma_upper):
        extra = ["--td", p3_td] if method == "treewidth" else ["--d", "2"]
        code, out, err = run(
            capsys, "transform", p3, "--from", "1,3", "--to", "2",
            "--method", method, *extra, "--gamma-upper", gamma_upper,
        )
        assert (code, out, err) == (1, "", "error: gamma_upper must be positive\n")

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

    @pytest.mark.parametrize("route", [(), ("--diameter",)], ids=["lattice", "node-list"])
    @pytest.mark.parametrize(
        "pair,message",
        [
            (("1", "9"), "--distance mentions vertex 9 but the graph has 3 vertices"),
            (("9", "2"), "--distance mentions vertex 9 but the graph has 3 vertices"),
            (("1", "3"), "set [1] is not a node of R_2"),
            (("2", "1,2,3"), "set [1, 2, 3] is not a node of R_2"),
        ],
    )
    def test_bad_distance_prints_nothing(self, capsys, p3, route, pair, message):
        code, out, err = run(capsys, "oracle", p3, "--k", "2", *route, "--distance", *pair)
        assert code == 1
        assert out == ""
        assert message in err

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

    @pytest.mark.parametrize("body", ["", "e 1 2\nbogus line\n"], ids=["edgeless", "malformed"])
    @pytest.mark.parametrize(
        "command, mode, err",
        [
            ("oracle", ("--k", "2"), "limit: oracle needs n <= 20, got 40000\n"),
            ("oracle", ("--scan", "3"), "limit: oracle needs n <= 20, got 40000\n"),
            ("stats", (), "limit: exact_invariants needs n <= 24, got 40000\n"),
        ],
        ids=["k", "scan", "stats"],
    )
    def test_header_over_the_limit_builds_no_graph(
        self, capsys, tmp_path, monkeypatch, command, mode, err, body
    ):
        # refused on the header's n, before the n-bit masks of a Graph are
        # built, so lines after the header are not read
        f = tmp_path / "big.gr"
        f.write_text("p ds 40000 0\n" + body)

        def forbidden(*args, **kwargs):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(Graph, "__init__", forbidden)
        assert run(capsys, command, str(f), *mode) == (3, "", err)

    def test_header_over_the_limit_keeps_the_scan_order(self, capsys, tmp_path):
        # kmax above n is still refused first, with exit 1
        f = tmp_path / "big.gr"
        f.write_text("c comment\np ds 40000 0\n")
        assert run(capsys, "oracle", str(f), "--scan", "40001") == (
            1,
            "",
            "error: kmax must be at most n=40000\n",
        )

    def test_mode_required(self, capsys, p3):
        with pytest.raises(SystemExit) as info:
            main(["oracle", p3])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main(["oracle", p3, "--k", "2", "--scan", "3"])
        assert info.value.code == 1


def _graph_file(tmp_path, name, g):
    f = tmp_path / f"{name}.gr"
    f.write_text(format_graph(g))
    return str(f)


class TestOracleRoutes:
    """--k answers on the subset lattice unless --diameter is asked or 2**n
    exceeds the subset cap; the stdouts below were produced by the node list."""

    @staticmethod
    def forbid(monkeypatch, *names):
        def forbidden(*args, **kwargs):
            raise AssertionError("the other route was taken")

        for name in names:
            monkeypatch.setattr(oracle, name, forbidden)

    @pytest.mark.parametrize(
        "name,g,argv,want",
        [
            (
                "myn4",
                gen_mynhardt(4),
                ("--k", "6", "--distance", "1,6,10,14", "2,3,4,5,16,17"),
                "k 6\nnodes 9132\nedges 29289\ncomponents 2\nconnected false\n"
                "frozen none\ndistance inf\n",
            ),
            (
                "grid",
                gen_grid(4, 5),
                ("--k", "10", "--distance", "1,3,10,11,12,19", "6,7,8,9,10,16,17,18,19,20"),
                "k 10\nnodes 107443\nedges 480156\ncomponents 5\nconnected false\n"
                "frozen 1,2,3,4,5,16,17,18,19,20\nfrozen 1,3,5,7,9,11,13,15,17,19\n"
                "frozen 2,4,6,8,10,12,14,16,18,20\nfrozen 6,7,8,9,10,11,12,13,14,15\n"
                "distance 12\n",
            ),
        ],
        ids=["mynhardt4", "grid4x5"],
    )
    def test_queries_skip_the_node_list(self, capsys, tmp_path, monkeypatch, name, g, argv, want):
        self.forbid(monkeypatch, "dominating_subsets", "build_reconfig_graph")
        code, out, err = run(capsys, "oracle", _graph_file(tmp_path, name, g), "--frozen", *argv)
        assert (code, err) == (0, "")
        assert out == want

    def test_diameter_uses_the_node_list(self, capsys, tmp_path, monkeypatch):
        self.forbid(monkeypatch, "SubsetLattice")
        graph = _graph_file(tmp_path, "myn3", gen_mynhardt(3))
        code, out, err = run(
            capsys, "oracle", graph, "--k", "4", "--diameter", "--frozen",
            "--distance", "1,5,8", "4,7,9,10",
        )
        assert (code, err) == (0, "")
        assert out == (
            "k 4\nnodes 170\nedges 259\ncomponents 2\nconnected false\n"
            "diameter inf\nmax-component-diameter 8\nfrozen none\ndistance 7\n"
        )

    @pytest.mark.parametrize(
        "k,want",
        [
            # 2,414 nodes, three source blocks
            (5, "k 5\nnodes 2414\nedges 4173\ncomponents 2\nconnected false\n"
                "diameter inf\nmax-component-diameter 10\n"),
            # 9,132 nodes, nine source blocks
            (6, "k 6\nnodes 9132\nedges 29289\ncomponents 2\nconnected false\n"
                "diameter inf\nmax-component-diameter 12\n"),
        ],
    )
    def test_diameter_golden_mynhardt4(self, capsys, tmp_path, k, want):
        graph = _graph_file(tmp_path, "myn4", gen_mynhardt(4))
        assert run(capsys, "oracle", graph, "--k", str(k), "--diameter") == (0, want, "")

    def test_above_the_cap_uses_the_node_list(self, capsys, tmp_path, monkeypatch):
        # 2**23 subsets exceed the default cap of 2**22
        self.forbid(monkeypatch, "SubsetLattice")
        graph = _graph_file(tmp_path, "star22", gen_star(22))
        code, out, err = run(
            capsys, "oracle", graph, "--k", "2", "--limit", "23", "--frozen",
            "--distance", "1", "1,23",
        )
        assert (code, err) == (0, "")
        assert out == (
            "k 2\nnodes 23\nedges 22\ncomponents 1\nconnected true\n"
            "frozen none\ndistance 1\n"
        )


class TestScanGolden:
    """oracle --scan stdout, byte for byte, on the inputs of the oracle-scan
    benchmark workload in generator numbering, and the scan's refusals."""

    @pytest.mark.parametrize(
        "name,g,kmax,text,rows",
        [
            (
                "myn3",
                gen_mynhardt(3),
                10,
                "gamma 3\ngamma-upper 3\nk nodes edges components connected diameter\n"
                "3 37 0 37 false inf\n4 170 259 2 false inf\n5 386 1057 1 true 10\n"
                "6 589 2137 1 true 10\n7 709 2949 1 true 10\n8 754 3309 1 true 10\n"
                "9 764 3399 1 true 10\n10 765 3409 1 true 10\nd0-empirical 5\n",
                "k,nodes,edges,components,connected,diameter\r\n"
                "3,37,0,37,false,inf\r\n4,170,259,2,false,inf\r\n5,386,1057,1,true,10\r\n"
                "6,589,2137,1,true,10\r\n7,709,2949,1,true,10\r\n8,754,3309,1,true,10\r\n"
                "9,764,3399,1,true,10\r\n10,765,3409,1,true,10\r\n",
            ),
            (
                "suzuki",
                gen_suzuki_planar(),
                9,
                "gamma 3\ngamma-upper 3\nk nodes edges components connected diameter\n"
                "3 34 0 34 false inf\n4 133 204 2 false inf\n5 253 699 1 true 9\n"
                "6 337 1179 1 true 9\n7 373 1431 1 true 9\n8 382 1503 1 true 9\n"
                "9 383 1512 1 true 9\nd0-empirical 5\n",
                "k,nodes,edges,components,connected,diameter\r\n"
                "3,34,0,34,false,inf\r\n4,133,204,2,false,inf\r\n5,253,699,1,true,9\r\n"
                "6,337,1179,1,true,9\r\n7,373,1431,1,true,9\r\n8,382,1503,1,true,9\r\n"
                "9,383,1512,1,true,9\r\n",
            ),
            (
                "star8",
                gen_star(8),
                9,
                "gamma 1\ngamma-upper 8\nk nodes edges components connected diameter\n"
                "1 1 0 1 true 0\n2 9 8 1 true 2\n3 37 64 1 true 4\n4 93 232 1 true 6\n"
                "5 163 512 1 true 8\n6 219 792 1 true 8\n7 247 960 1 true 8\n"
                "8 256 1016 2 false inf\n9 257 1025 1 true 9\nd0-empirical 9\n",
                "k,nodes,edges,components,connected,diameter\r\n"
                "1,1,0,1,true,0\r\n2,9,8,1,true,2\r\n3,37,64,1,true,4\r\n4,93,232,1,true,6\r\n"
                "5,163,512,1,true,8\r\n6,219,792,1,true,8\r\n7,247,960,1,true,8\r\n"
                "8,256,1016,2,false,inf\r\n9,257,1025,1,true,9\r\n",
            ),
            (
                "myn4",
                gen_mynhardt(4),
                5,
                "gamma 4\ngamma-upper 4\nk nodes edges components connected diameter\n"
                "4 321 0 321 false inf\n5 2414 4173 2 false inf\nd0-empirical none\n",
                "k,nodes,edges,components,connected,diameter\r\n"
                "4,321,0,321,false,inf\r\n5,2414,4173,2,false,inf\r\n",
            ),
        ],
        ids=["mynhardt3", "suzuki", "star8", "mynhardt4"],
    )
    def test_stdout(self, capsys, tmp_path, name, g, kmax, text, rows):
        graph = _graph_file(tmp_path, name, g)
        assert run(capsys, "oracle", graph, "--scan", str(kmax)) == (0, text, "")
        assert run(capsys, "oracle", graph, "--scan", str(kmax), "--csv") == (0, rows, "")

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (("--scan", "4"), 1, "error: kmax must be at most n=3\n"),
            (("--scan", "-1"), 1, "error: k must be nonnegative\n"),
            (("--scan", "-1", "--limit", "2"), 3, "limit: oracle needs n <= 2, got 3\n"),
        ],
    )
    def test_refusals(self, capsys, p3, argv, code, err):
        assert run(capsys, "oracle", p3, *argv) == (code, "", err)

    def test_subset_cap_quotes_kmax(self, capsys, tmp_path):
        # C(23, <= 23) = 2**23 subsets exceed the cap of 2**22
        graph = _graph_file(tmp_path, "p23", gen_path(23))
        assert run(capsys, "oracle", graph, "--scan", "23", "--limit", "23") == (
            3,
            "",
            "limit: scanning 8388608 subsets exceeds the cap 4194304\n",
        )


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
