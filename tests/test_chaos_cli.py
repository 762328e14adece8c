"""``feam chaos`` end to end, and the checkpoint flags that are gone.

These run the real CLI entry points (paper sites, real matrix) -- the
contract CI's chaos-gate job relies on: exit 0 under injected faults,
a fault/retry/breaker summary, and byte-identical same-seed reruns.
Resuming a killed run is a rerun against the same ``--cache-dir``
(tests/test_persist.py), so ``--journal``/``--resume`` are usage
errors.
"""

import json

import pytest

from repro.__main__ import EXIT_FAILURE, EXIT_OK, feam_main


def run_chaos(capsys, *extra):
    code = feam_main(["chaos", "--binaries", "1", "--seed", "7",
                      *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChaosVerb:
    def test_flaky_profile_completes_with_summary(self, capsys,
                                                  tmp_path):
        out_json = tmp_path / "summary.json"
        code, out, err = run_chaos(
            capsys, "--verbose", "--summary-out", str(out_json))
        assert code == EXIT_OK
        assert "READINESS MATRIX" in out
        assert "chaos summary" in out
        assert "faults injected:" in out
        assert "breakers:" in out
        assert "Traceback" not in err       # degrade, never crash
        summary = json.loads(out_json.read_text())
        assert summary["plan"]["profile"] == "flaky"
        assert summary["plan"]["seed"] == 7
        assert summary["plan"]["injected"] > 0
        assert summary["matrix"]["cells"] == 5  # 1 binary x 5 sites
        assert set(summary["breakers"]) == \
            {"ranger", "forge", "blacklight", "india", "fir"}

    def test_same_seed_reruns_are_byte_identical(self, capsys):
        code_a, out_a, _ = run_chaos(capsys)
        code_b, out_b, _ = run_chaos(capsys)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_profile_file_matches_the_builtin(self, capsys, tmp_path):
        from repro.sysmodel.faults import PROFILES
        profile = tmp_path / "custom.txt"
        profile.write_text(PROFILES["flaky"] + "\n")
        _, builtin_out, _ = run_chaos(capsys)
        code, file_out, _ = run_chaos(capsys, "--profile", str(profile))
        assert code == EXIT_OK
        # Same grid and counts; only the profile name line differs.
        strip = "profile: "
        assert [l for l in file_out.splitlines()
                if not l.startswith(strip)] == \
            [l for l in builtin_out.splitlines()
             if not l.startswith(strip)]

    def test_none_profile_injects_nothing(self, capsys):
        code, out, _ = run_chaos(capsys, "--profile", "none")
        assert code == EXIT_OK
        assert "faults injected: 0" in out


class TestChaosFailureModes:
    def test_unknown_profile_is_operational_failure(self, capsys):
        assert feam_main(["chaos", "--profile", "nope"]) == EXIT_FAILURE
        assert "unknown fault profile" in capsys.readouterr().err

    def test_bad_profile_file_is_operational_failure(self, capsys,
                                                     tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("explode @ *\n")
        assert feam_main(["chaos", "--profile", str(bad)]) \
            == EXIT_FAILURE
        assert "bad fault profile" in capsys.readouterr().err


class TestMatrixCheckpointFlags:
    def test_matrix_missing_resume_journal_fails(self, capsys,
                                                 tmp_path):
        # The journal and span-sampling flags are gone from both verbs:
        # argparse rejects them as usage errors (exit 2).
        for verb in ("matrix", "chaos"):
            for flag, value in (("--journal", str(tmp_path / "j.jsonl")),
                                ("--resume", str(tmp_path / "no.jsonl")),
                                ("--sample-spans", "100"),
                                ("--sample-slo", "2.0")):
                with pytest.raises(SystemExit) as info:
                    feam_main([verb, flag, value])
                assert info.value.code == 2, (verb, flag)
                assert "unrecognized arguments" in \
                    capsys.readouterr().err
