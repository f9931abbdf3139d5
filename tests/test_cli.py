"""End-to-end command behavior: exit codes, reports, and file outputs."""

import pytest

from conftest import same_stable_report, tampered_c0
from cuberamsey import (
    Color,
    Embedding,
    SearchOutcome,
    load_coloring,
    make_c0,
    make_c3,
    make_layered,
    parse_coloring,
    save_coloring,
)
from cuberamsey import cli, lattice
from cuberamsey.cli import (
    EXIT_FAIL,
    EXIT_FOUND,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    main,
)
from cuberamsey.reports import parse_report, stable_lines


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fake_find_copy(monkeypatch, statuses=()):
    """Replace the search the CLI calls with one that returns the given
    statuses in call order ("absent" once they run out) and records the
    workers of each call.  No search runs and no worker pool starts."""
    calls = []
    queue = list(statuses)

    def fake(family, n, mode, budget_ms=None, workers=1):
        calls.append(workers)
        status = queue.pop(0) if queue else "absent"
        embedding = None
        if status == "found":
            embedding = Embedding.from_values(n, family.space.m, tuple(range(1 << n)))
        hits = dict.fromkeys(
            ("root-gap", "cardinality-window", "source-symmetry", "target-symmetry"), 0
        )
        return SearchOutcome(status, embedding, None, 0, hits, 0.0)

    monkeypatch.setattr(cli, "find_copy", fake)
    return calls


@pytest.fixture
def c0n3(tmp_path):
    path = tmp_path / "c0n3.qrc1"
    save_coloring(make_c0(3), path)
    return path


@pytest.fixture
def c0n4(tmp_path):
    path = tmp_path / "c0n4.qrc1"
    save_coloring(make_c0(4), path)
    return path


@pytest.fixture
def layered5(tmp_path):
    path = tmp_path / "lay5.qrc1"
    save_coloring(make_layered(5), path)
    return path


class TestColorCommand:
    def test_stdout_mode_emits_raw_coloring(self, capsys):
        code, out, _ = run(capsys, "color", "--n", 2, "--scheme", "c0")
        assert code == EXIT_OK
        assert parse_coloring(out) == make_c0(2)

    @pytest.mark.parametrize(
        "args", [("color", "--scheme", "c0"), ("color", "--scheme", "layered", "--m", 32)]
    )
    def test_tables_beyond_memory_exit_1(self, capsys, monkeypatch, args):
        monkeypatch.setattr(lattice, "physical_memory", lambda: 1 << 30)
        code, out, err = run(capsys, *args, "--n", 16)
        assert code == 1
        assert out == ""
        assert "dense tables over 2^[32] need about" in err

    def test_file_mode_writes_and_reports(self, capsys, tmp_path):
        path = tmp_path / "c.qrc1"
        code, out, _ = run(capsys, "color", "--n", 3, "--scheme", "c0", "--out", path)
        assert code == EXIT_OK
        assert load_coloring(path) == make_c0(3)
        fields, _ = parse_report(out)
        assert fields["command"] == "color"
        assert fields["m"] == "6"
        assert fields["scheme"] == "c0 n=3"

    def test_layered_defaults_to_odd_ground_set(self, capsys, tmp_path):
        path = tmp_path / "lay.qrc1"
        code, out, _ = run(capsys, "color", "--n", 3, "--scheme", "layered", "--out", path)
        assert code == EXIT_OK
        assert load_coloring(path) == make_layered(5)

    def test_layered_ground_override(self, capsys, tmp_path):
        path = tmp_path / "lay4.qrc1"
        run(capsys, "color", "--n", 3, "--scheme", "layered", "--m", 4, "--out", path)
        assert load_coloring(path).space.m == 4

    def test_paired_scheme_rejects_ground_override(self, capsys):
        code, _, err = run(capsys, "color", "--n", 3, "--scheme", "c0", "--m", 5)
        assert code == EXIT_FAIL
        assert "error:" in err

    def test_c3_round_trip_is_copy_free(self, capsys, tmp_path):
        path = tmp_path / "c3.qrc1"
        code, out, _ = run(capsys, "color", "--n", 3, "--scheme", "c3", "--out", path)
        assert code == EXIT_OK
        assert parse_report(out)[0]["scheme"] == "c3"
        assert load_coloring(path) == make_c3()
        code, out, _ = run(capsys, "find-copy", "--n", 3, "--coloring", path, "--threads", 1)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["red"] == fields["blue"] == "absent"

    @pytest.mark.parametrize("args", [("--n", 4), ("--n", 3, "--m", 7)])
    def test_c3_is_for_n3_only(self, capsys, args):
        code, out, err = run(capsys, "color", "--scheme", "c3", *args)
        assert code == EXIT_FAIL
        assert out == "" and "error:" in err

    def test_quiet_silences_stdout(self, capsys, tmp_path):
        path = tmp_path / "c.qrc1"
        code, out, _ = run(
            capsys, "color", "--n", 2, "--scheme", "c0", "--out", path, "--quiet"
        )
        assert code == EXIT_OK
        assert out == ""
        assert path.exists()


class TestCheckCommand:
    def test_restrictive_coloring_passes(self, capsys, c0n4):
        code, out, _ = run(capsys, "check", "--n", 4, "--coloring", c0n4)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["verdict"] == "restrictive"
        assert fields["red_restrictive"] == "holds"
        assert fields["dual-red_restrictive"] == "holds"
        assert fields["red_pair-enforcing"].startswith("holds checked=")

    def test_corrupted_coloring_fails_with_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.qrc1"
        save_coloring(tampered_c0(4), bad)
        code, out, _ = run(capsys, "check", "--n", 4, "--coloring", bad)
        assert code == EXIT_FAIL
        fields, _ = parse_report(out)
        assert fields["verdict"] == "not-restrictive"
        assert fields["red_miss-forbidding"] == "fails witness={1,2,3,4,5} checked=84"

    def test_ground_set_mismatch(self, capsys, c0n3):
        code, _, err = run(capsys, "check", "--n", 4, "--coloring", c0n3)
        assert code == EXIT_FAIL
        assert "m=6" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--n", 4, "--coloring", tmp_path / "no.qrc1")
        assert code == EXIT_FAIL
        assert "error:" in err

    def test_malformed_file_reports_position(self, capsys, tmp_path):
        path = tmp_path / "mal.qrc1"
        path.write_text("QRC1\nm=8\nscheme=x\nRX\n")
        code, _, err = run(capsys, "check", "--n", 4, "--coloring", path)
        assert code == EXIT_FAIL
        assert "line 4, column 2" in err


class TestFindCopyCommand:
    def test_copy_in_paired_scheme_q6(self, capsys, c0n3):
        code, out, _ = run(
            capsys, "find-copy", "--n", 3, "--coloring", c0n3, "--threads", 1
        )
        assert code == EXIT_FOUND
        fields, blocks = parse_report(out)
        assert fields["red"] == "found"
        assert fields["blue"] == "skipped"
        assert len(blocks["red_embedding"]) == 8
        assert blocks["red_embedding"][0] == "{} -> {}"

    def test_single_color_selection(self, capsys, c0n3):
        code, out, _ = run(
            capsys,
            "find-copy", "--n", 3, "--coloring", c0n3,
            "--color", "blue", "--threads", 1,
        )
        assert code == EXIT_FOUND
        fields, blocks = parse_report(out)
        assert "red" not in fields
        assert fields["blue"] == "found"
        assert "blue_embedding" in blocks

    def test_absence_reports_audit_counts(self, capsys, layered5):
        code, out, _ = run(
            capsys, "find-copy", "--n", 3, "--coloring", layered5, "--threads", 1
        )
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["red"] == "absent"
        assert fields["blue"] == "absent"
        assert fields["red_nodes"] == "42"
        assert fields["red_prune_root-gap"] == "40"
        assert fields["red_prune_cardinality-window"] == "152"
        assert fields["red_prune_source-symmetry"] == "168"
        assert fields["red_prune_target-symmetry"] == "4"
        assert "red_prune_top-children" not in fields

    def test_budget_turns_run_inconclusive(self, capsys, c0n4):
        code, out, _ = run(
            capsys,
            "find-copy", "--n", 4, "--coloring", c0n4,
            "--budget-ms", 5, "--threads", 1,
        )
        assert code == EXIT_INCONCLUSIVE
        fields, _ = parse_report(out)
        assert fields["red"] == "inconclusive"
        assert fields["budget_ms"] == "5"
        assert "red_nodes" not in fields  # exhaustion was not completed

    def test_reports_are_stable_across_runs_and_threads(self, capsys, layered5):
        _, first, _ = run(
            capsys, "find-copy", "--n", 3, "--coloring", layered5, "--threads", 1
        )
        _, second, _ = run(
            capsys, "find-copy", "--n", 3, "--coloring", layered5, "--threads", 1
        )
        _, parallel, _ = run(
            capsys, "find-copy", "--n", 3, "--coloring", layered5, "--threads", 2
        )
        assert same_stable_report(first, second)
        assert same_stable_report(first, parallel)

    @pytest.mark.parametrize(
        "statuses,code,blue",
        [
            (("found",), EXIT_FOUND, "skipped"),
            (("inconclusive", "found"), EXIT_FOUND, "found"),
            (("absent", "inconclusive"), EXIT_INCONCLUSIVE, "inconclusive"),
            (("inconclusive", "absent"), EXIT_INCONCLUSIVE, "absent"),
            (("absent", "absent"), EXIT_OK, "absent"),
        ],
    )
    def test_exit_code_follows_outcomes(self, capsys, monkeypatch, c0n3, statuses, code, blue):
        fake_find_copy(monkeypatch, statuses)
        got, out, _ = run(capsys, "find-copy", "--n", 3, "--coloring", c0n3, "--threads", 1)
        assert got == code
        fields, _ = parse_report(out)
        assert fields["red"] == statuses[0]
        assert fields["blue"] == blue
        assert "verdict" not in fields

    def test_out_file_matches_stdout(self, capsys, layered5, tmp_path):
        report = tmp_path / "report.txt"
        _, out, _ = run(
            capsys,
            "find-copy", "--n", 3, "--coloring", layered5,
            "--threads", 1, "--out", report,
        )
        assert report.read_text() == out


class TestRecheckCommand:
    def test_roundtrip(self, capsys, c0n3, tmp_path):
        report = tmp_path / "report.txt"
        code, _, _ = run(
            capsys,
            "find-copy", "--n", 3, "--coloring", c0n3,
            "--threads", 1, "--out", report,
        )
        assert code == EXIT_FOUND
        code, out, _ = run(capsys, "recheck", report, "--coloring", c0n3)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["red_certificate"] == "valid"
        assert fields["verdict"] == "certificates-valid"

    def test_tampered_certificate_fails(self, capsys, c0n3, tmp_path):
        report = tmp_path / "report.txt"
        run(
            capsys,
            "find-copy", "--n", 3, "--coloring", c0n3,
            "--threads", 1, "--out", report,
        )
        text = report.read_text()
        # Redirect one image to a set of the wrong color.
        tampered = text.replace("{} -> {}", "{} -> {1,3}", 1)
        assert tampered != text
        report.write_text(tampered)
        code, out, _ = run(capsys, "recheck", report, "--coloring", c0n3)
        assert code == EXIT_FAIL
        fields, _ = parse_report(out)
        assert fields["red_certificate"].startswith("invalid")
        assert fields["verdict"] == "certificates-invalid"

    def test_report_without_certificate_is_an_error(self, capsys, layered5, tmp_path):
        report = tmp_path / "absent.txt"
        run(
            capsys,
            "find-copy", "--n", 3, "--coloring", layered5,
            "--threads", 1, "--out", report,
        )
        code, _, err = run(capsys, "recheck", report, "--coloring", layered5)
        assert code == EXIT_FAIL
        assert "no embedding certificate" in err

    def test_coloring_mismatch_rejected(self, capsys, c0n3, c0n4, tmp_path):
        report = tmp_path / "report.txt"
        run(
            capsys,
            "find-copy", "--n", 3, "--coloring", c0n3,
            "--threads", 1, "--out", report,
        )
        code, _, err = run(capsys, "recheck", report, "--coloring", c0n4)
        assert code == EXIT_FAIL
        assert "m=6" in err

    @pytest.mark.parametrize("n", [13, 1000000000])
    def test_report_n_outside_source_range(self, capsys, c0n3, tmp_path, n):
        # n is read from the file; 2^n must not be evaluated before the
        # range check.
        report = tmp_path / "report.txt"
        run(
            capsys,
            "find-copy", "--n", 3, "--coloring", c0n3,
            "--threads", 1, "--out", report,
        )
        text = report.read_text()
        tampered = text.replace("\nn: 3\n", f"\nn: {n}\n", 1)
        assert tampered != text
        report.write_text(tampered)
        code, out, err = run(capsys, "recheck", report, "--coloring", c0n3)
        assert code == EXIT_FAIL
        assert out == ""
        assert err == f"error: report says n={n}, outside 1..12\n"


class TestVerifyLowerBoundCommand:
    def test_small_n_rejected(self, capsys):
        code, _, err = run(capsys, "verify-lower-bound", "--n", 2)
        assert code == EXIT_FAIL
        assert "n = 3" in err

    @pytest.mark.parametrize("n", [13, 14])
    def test_n_beyond_search_rejected_before_building(self, capsys, monkeypatch, n):
        built = []
        monkeypatch.setattr(cli, "make_c0", lambda n: built.append(n))
        code, out, err = run(capsys, "verify-lower-bound", "--n", n, "--threads", 1)
        assert code == EXIT_FAIL
        assert out == ""
        assert err == f"error: source cube parameter {n} outside 1..12\n"
        assert built == []

    def test_construction_route_rejects_external_coloring(self, capsys, c0n3, c0n4):
        # No route takes a coloring file, n = 3 included.
        for n, path in ((3, c0n3), (4, c0n4)):
            with pytest.raises(SystemExit) as exc:
                main(["verify-lower-bound", "--n", str(n), "--coloring", str(path)])
            assert exc.value.code == EXIT_FAIL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --coloring" in captured.err

    def test_budgeted_run_is_inconclusive(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-lower-bound", "--n", 4, "--budget-ms", 5, "--threads", 1,
        )
        assert code == EXIT_INCONCLUSIVE
        fields, _ = parse_report(out)
        assert fields["verdict"] == "inconclusive"
        assert fields["red_restrictive"] == "holds"


    VERIFIED_N4 = [
        "command: verify-lower-bound",
        "n: 4",
        "m: 8",
        "scheme: c0 n=4",
        "route: construction",
        "red_pair-enforcing: holds checked=84",
        "red_miss-forbidding: holds checked=84",
        "red_not-too-high: holds checked=125",
        "red_flip-susceptible: holds checked=16",
        "red_restrictive: holds",
        "dual-red_pair-enforcing: holds checked=84",
        "dual-red_miss-forbidding: holds checked=84",
        "dual-red_not-too-high: holds checked=131",
        "dual-red_flip-susceptible: holds checked=16",
        "dual-red_restrictive: holds",
        "red: absent",
        "red_nodes: 2784",
        "red_prune_root-gap: 1004",
        "red_prune_cardinality-window: 24241",
        "red_prune_source-symmetry: 14538",
        "red_prune_target-symmetry: 420",
        "blue: absent",
        "blue_nodes: 7339",
        "blue_prune_root-gap: 1088",
        "blue_prune_cardinality-window: 60534",
        "blue_prune_source-symmetry: 48836",
        "blue_prune_target-symmetry: 424",
        "verdict: verified",
        "bound: R(Q4,Q4) >= 9",
    ]

    def test_construction_route_verified_n4(self, capsys):
        code, out, _ = run(capsys, "verify-lower-bound", "--n", 4, "--threads", 1)
        assert code == EXIT_OK
        assert stable_lines(out) == self.VERIFIED_N4

    def test_copy_free_but_not_restrictive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_c0", tampered_c0)
        code, out, _ = run(capsys, "verify-lower-bound", "--n", 4, "--threads", 1)
        assert code == EXIT_FAIL
        fields, _ = parse_report(out)
        assert fields["scheme"] == "tampered"
        assert fields["red_miss-forbidding"] == "fails witness={1,2,3,4,5} checked=84"
        assert fields["red_restrictive"] == "fails"
        assert fields["dual-red_restrictive"] == "holds"
        assert fields["red"] == fields["blue"] == "absent"
        assert fields["verdict"] == "not-restrictive"
        assert "bound" not in fields

    VERIFIED_N3 = [
        "command: verify-lower-bound",
        "n: 3",
        "m: 6",
        "scheme: c3",
        "route: search-only",
        "red: absent",
        "red_nodes: 2234",
        "red_prune_root-gap: 45",
        "red_prune_cardinality-window: 4776",
        "red_prune_source-symmetry: 12074",
        "red_prune_target-symmetry: 0",
        "blue: absent",
        "blue_nodes: 666",
        "blue_prune_root-gap: 125",
        "blue_prune_cardinality-window: 3100",
        "blue_prune_source-symmetry: 1753",
        "blue_prune_target-symmetry: 0",
        "verdict: verified",
        "bound: R(Q3,Q3) >= 7",
    ]

    def test_n3_builtin_coloring_verified(self, capsys):
        for threads in (1, 2):
            code, out, _ = run(capsys, "verify-lower-bound", "--n", 3, "--threads", threads)
            assert code == EXIT_OK
            assert stable_lines(out) == self.VERIFIED_N3

    @pytest.mark.parametrize(
        "restrictive,statuses,code,verdict",
        [
            (False, ("found",), EXIT_FOUND, "copy-found"),
            (False, ("absent", "found"), EXIT_FOUND, "copy-found"),
            (True, ("inconclusive", "found"), EXIT_FOUND, "copy-found"),
            (False, ("inconclusive", "absent"), EXIT_INCONCLUSIVE, "inconclusive"),
            (True, ("absent", "inconclusive"), EXIT_INCONCLUSIVE, "inconclusive"),
            (False, ("absent", "absent"), EXIT_FAIL, "not-restrictive"),
            (True, ("absent", "absent"), EXIT_OK, "verified"),
        ],
    )
    def test_verdict_precedence(self, capsys, monkeypatch, restrictive, statuses, code, verdict):
        fake_find_copy(monkeypatch, statuses)
        if not restrictive:
            monkeypatch.setattr(cli, "make_c0", tampered_c0)
        got, out, _ = run(capsys, "verify-lower-bound", "--n", 4, "--threads", 1)
        assert got == code
        fields, _ = parse_report(out)
        assert fields["red_restrictive"] == ("holds" if restrictive else "fails")
        assert fields["verdict"] == verdict
        assert ("bound" in fields) == (verdict == "verified")


class TestBruteRamseyCommand:
    def test_value_two(self, capsys):
        code, out, _ = run(capsys, "brute-ramsey", "--n", 1, "--max-m", 4)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["m=1"] == "good index=1 checked=2"
        assert fields["m=2"] == "none checked=16"
        assert fields["value"] == "2"

    def test_value_four(self, capsys):
        code, out, _ = run(capsys, "brute-ramsey", "--n", 2, "--max-m", 4)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["m=3"] == "good index=23 checked=24"
        assert fields["m=4"] == "none checked=65536"
        assert fields["value"] == "4"

    def test_unresolved_scan(self, capsys):
        code, out, _ = run(capsys, "brute-ramsey", "--n", 3, "--max-m", 4)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["value"] == "unresolved"

    def test_capacity_error(self, capsys):
        # n=3 stays unresolved through m=4, so the scan reaches m=5 and
        # hits the enumeration capacity.
        code, _, err = run(capsys, "brute-ramsey", "--n", 3, "--max-m", 5)
        assert code == EXIT_FAIL
        assert "error:" in err


class TestFlipGraphCommand:
    def test_report_and_edge_export(self, capsys, tmp_path):
        edges = tmp_path / "edges.txt"
        code, out, _ = run(capsys, "flip-graph", "--n", 3, "--edges", edges)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["vertices"] == "8"
        assert fields["edges"] == "12"
        assert fields["bipartite"] == "yes"
        assert fields["connected"] == "yes"
        assert fields["matches_parity"] == "yes"
        assert fields["odd_class"] == fields["even_class"] == "4"
        lines = edges.read_text().splitlines()
        assert lines[0] == "21 22"
        assert len(lines) == 12

    def test_beyond_32_element_ground_set(self, capsys):
        # The transversals of n = 17 live in [34], past the 32-element cap
        # of ElementSet; the parity classes must not go through it.
        code, out, _ = run(capsys, "flip-graph", "--n", 17)
        assert code == EXIT_OK
        fields, _ = parse_report(out)
        assert fields["vertices"] == "131072"
        assert fields["edges"] == str(17 << 16)
        assert fields["bipartite"] == fields["connected"] == "yes"
        assert fields["odd_class"] == fields["even_class"] == "65536"
        assert fields["matches_parity"] == "yes"

    def test_capacity_error(self, capsys):
        code, _, err = run(capsys, "flip-graph", "--n", 30)
        assert code == EXIT_FAIL
        assert "error:" in err


class TestParserBehavior:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cuberamsey" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_FAIL

    @pytest.mark.parametrize(
        "argv",
        [
            ["find-copy", "--n", "3", "--coloring", "x", "--bogus"],
            ["verify-lower-bound", "--n", "x"],
            ["find-copy", "--n", "3"],
        ],
        ids=["unknown-argument", "bad-int", "missing-required"],
    )
    def test_argument_errors_exit_1(self, capsys, argv):
        # argparse alone would exit 2, the code for "copy found".
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_subcommand_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lower-bound", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--coloring" not in capsys.readouterr().out

    def test_threads_default_to_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert cli._default_threads() == 3
        for argv in (["find-copy", "--coloring", "x"], ["verify-lower-bound"]):
            args = cli.build_parser().parse_args([*argv, "--n", "4"])
            assert args.threads == 3
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._default_threads() == 8
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._default_threads() == 1

    def test_threads_below_one_is_a_usage_error(self, capsys, monkeypatch, c0n3):
        calls = fake_find_copy(monkeypatch)
        commands = (("find-copy", "--n", 3, "--coloring", c0n3), ("verify-lower-bound", "--n", 4))
        for argv in commands:
            for threads in (0, -2):
                code, out, err = run(capsys, *argv, "--threads", threads)
                assert code == EXIT_FAIL
                assert out == ""
                assert f"--threads must be at least 1, got {threads}" in err
        assert calls == []

    def test_bad_budget_is_a_usage_error(self, capsys, monkeypatch, c0n3):
        # Rejected before any coloring is loaded or built: the coloring file
        # does not exist, and make_c0 is never called.
        calls = fake_find_copy(monkeypatch)
        built = []
        monkeypatch.setattr(cli, "make_c0", lambda n: built.append(n))
        commands = (
            ("find-copy", "--n", 3, "--coloring", "missing.qrc1"),
            ("verify-lower-bound", "--n", 4),
        )
        for argv in commands:
            for budget in ("nan", "-1"):
                code, out, err = run(capsys, *argv, "--budget-ms", budget)
                assert code == EXIT_FAIL
                assert out == ""
                assert f"error: --budget-ms must be a number >= 0, got {budget}" in err
        assert calls == [] and built == []
        code, _, _ = run(capsys, "find-copy", "--n", 3, "--coloring", c0n3, "--budget-ms", 0)
        assert code == EXIT_OK and len(calls) == 2  # 0 is a valid budget

    def test_threads_clamped_to_available_cpus(self, capsys, monkeypatch, c0n3):
        monkeypatch.setattr(cli, "_default_threads", lambda: 2)
        calls = fake_find_copy(monkeypatch)
        for threads, want in ((1000, 2), (3, 2), (2, 2), (1, 1)):
            calls.clear()
            run(capsys, "find-copy", "--n", 3, "--coloring", c0n3, "--threads", threads)
            run(capsys, "verify-lower-bound", "--n", 3, "--threads", threads)
            assert calls == [want] * 4

    def test_reports_end_with_volatile_fields(self, capsys, c0n3):
        _, out, _ = run(capsys, "check", "--n", 3, "--coloring", c0n3)
        lines = out.splitlines()
        assert lines[-2].startswith("version: ")
        assert lines[-1].startswith("elapsed_ms: ")
