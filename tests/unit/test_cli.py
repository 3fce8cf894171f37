"""CLI commands exercised in process."""

from repro._version import __version__
from repro.cli import main


class TestTables:
    def test_default_q3(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "R_p" in out
        assert "Q_i" in out
        assert "'P': 30" in out

    def test_sqs8(self, capsys):
        assert main(["tables", "--sqs", "3"]) == 0
        out = capsys.readouterr().out
        assert "'P': 14" in out


class TestSchedule:
    def test_sqs8_has_12_steps(self, capsys):
        assert main(["schedule", "--sqs", "3"]) == 0
        out = capsys.readouterr().out
        assert "step 12:" in out
        assert "step 13:" not in out
        assert "12 steps for P = 14" in out

    def test_q2(self, capsys):
        assert main(["schedule", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "9 steps for P = 10" in out


class TestBound:
    def test_d3(self, capsys):
        assert main(["bound", "--n", "120", "--p", "30"]) == 0
        out = capsys.readouterr().out
        assert "68.59" in out

    def test_d4(self, capsys):
        assert main(["bound", "--n", "120", "--p", "30", "--d", "4"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out


class TestAnalyze:
    def test_q2_defaults(self, capsys):
        assert main(["analyze", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "point-to-point" in out
        assert "all-to-all" in out
        assert "lower bound" in out
        # Exact optimal cost for the default n = 30 at q=2 is 30 words.
        assert "30 words/proc" in out


class TestAdmissible:
    def test_listing(self, capsys):
        assert main(["admissible", "--limit", "200"]) == 0
        out = capsys.readouterr().out
        assert "10, 14, 30, 68, 130" in out


class TestPlan:
    def test_decision_table_prints(self, capsys):
        assert main(["plan", "--q", "3", "--P", "30"]) == 0
        out = capsys.readouterr().out
        assert "STTSV plan for n=120" in out
        assert "all-to-all" in out and "point-to-point" in out
        assert "best:" in out
        assert "session config:" in out

    def test_alpha_override_flips_to_all_to_all(self, capsys):
        # Dense: fused point-to-point and All-to-All both cost 2 fused
        # exchanges, so high latency cannot flip the dense variant.
        assert main(
            ["plan", "--q", "3", "--alpha", "1e-2", "--fused"]
        ) == 0
        out = capsys.readouterr().out
        assert "variant=point-to-point" in out
        # Low-rank: the unfused point-to-point ring loses to
        # All-to-All's single fused exchange.
        assert main(
            [
                "plan", "--q", "2", "--n", "60", "--rank", "4",
                "--alpha", "1e-2", "--fused",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy=symk" in out
        assert "variant=all-to-all" in out

    def test_beta_override_flips_to_point_to_point(self, capsys):
        assert main(
            [
                "plan", "--q", "3",
                "--alpha", "1e-9", "--beta", "1e-3", "--fused",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "variant=point-to-point" in out

    def test_calibrate_writes_file_plan_reads_it(self, tmp_path, capsys):
        path = str(tmp_path / "cal.json")
        assert main(
            ["plan", "--q", "2", "--calibrate", "--calibration", path]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "measured constants" in out
        # A second run loads the same file instead of re-measuring.
        assert main(["plan", "--q", "2", "--calibration", path]) == 0
        assert "measured constants" in capsys.readouterr().out

    def test_mismatched_P_reports_error(self, capsys):
        assert main(["plan", "--q", "2", "--P", "999"]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrors:
    def test_bad_q_reports_error(self, capsys):
        assert main(["tables", "--q", "6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_returns_2_with_usage(self, capsys):
        # Unknown subcommands must not escape as SystemExit: main()
        # returns the argparse exit code with usage on stderr.
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "frobnicate" in err

    def test_bad_flag_returns_2(self, capsys):
        assert main(["tables", "--no-such-flag"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_no_command_returns_2(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "load" in out


class TestSymv:
    def test_fano_default(self, capsys):
        assert main(["symv"]) == 0
        out = capsys.readouterr().out
        assert "P = 7" in out
        assert "lower bound" in out

    def test_pg23(self, capsys):
        assert main(["symv", "--q", "3"]) == 0
        assert "P = 13" in capsys.readouterr().out


class TestAnalyzeAudit:
    def test_audit_passes(self, capsys):
        assert main(["analyze", "--q", "2", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "all runs PASS" in out
        assert "[PASS]" in out


class TestLowRank:
    def test_analyze_rank_pins_closed_form(self, capsys):
        assert main(["analyze", "--q", "2", "--rank", "4", "--n", "50"]) == 0
        out = capsys.readouterr().out
        assert "(P-1)*r" in out
        assert "36 words/proc" in out  # (10-1)*4
        assert "bitwise" in out
        assert "MISMATCH" not in out

    def test_analyze_rank_rejects_sqs(self, capsys):
        assert main(["analyze", "--sqs", "3", "--rank", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_rank_prices_symk(self, capsys):
        assert main(["plan", "--q", "2", "--rank", "4", "--n", "40"]) == 0
        out = capsys.readouterr().out
        assert "symk" in out
        assert "repr" in out

    def test_plan_order4_is_actionable_typed_exit_2(self, capsys):
        """The planner prices order 3 only; asking for order 4 must be
        a typed error with a recovery path on stderr and exit code 2,
        not a silent fallback or a traceback."""
        assert main(["plan", "--order", "4", "--q", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "prices order 3 only" in err
        assert "repro load --order 4 --backend" in err
