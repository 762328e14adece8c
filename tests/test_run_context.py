"""Live ``feam`` verbs share one run assembly and one teardown.

``matrix``, ``chaos``, ``stats``, live ``slo``, ``serve``, drive-mode
``watch`` and live ``alerts`` build their world through one
``RunContext``: each closes its evaluation engine (and with it any
persistent store) exactly once, and every output file they name is
checked before anything is evaluated, so a bad path costs one stderr
line, exit 1, no stdout and no ledger manifest.
"""

import pytest

from repro.__main__ import EXIT_FAILURE, feam_main, main
from repro.core.engine import EvaluationEngine

LIVE_VERBS = [
    ["matrix", "--no-ledger"],
    ["chaos", "--no-ledger"],
    ["stats"],
    ["slo", "--rounds", "1"],
    ["serve", "--port", "0", "--linger", "0", "--rounds", "1"],
    ["watch"],
    ["alerts", "--rounds", "1"],
]


@pytest.mark.parametrize("verb", LIVE_VERBS, ids=lambda verb: verb[0])
def test_live_verb_closes_its_engine_once(verb, monkeypatch, capsys):
    closed = []
    close = EvaluationEngine.close

    def counting_close(engine):
        closed.append(engine)
        close(engine)

    monkeypatch.setattr(EvaluationEngine, "close", counting_close)
    code = feam_main(verb + ["--binaries", "1", "--seed", "7"])
    assert code in (0, 2), capsys.readouterr().err
    assert len(closed) == 1


@pytest.mark.parametrize("verb, flag", [
    ("matrix", "--wide-out"),
    ("matrix", "--trace-out"),
    ("chaos", "--timeline"),
    ("chaos", "--summary-out"),
])
def test_bad_output_path_fails_before_the_run(verb, flag, tmp_path,
                                              capsys):
    bad = tmp_path / "missing" / "out.jsonl"
    code = feam_main([verb, "--binaries", "1", flag, str(bad)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert captured.out == ""
    assert "evaluating" not in captured.err
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines()
            if str(bad) in line and "cannot" in line]
    assert not (tmp_path / "ledger").exists()   # no manifest recorded


def test_trace_verb_checks_trace_out_first(tmp_path, capsys):
    bad = tmp_path / "missing" / "trace.jsonl"
    assert feam_main(["trace", "--trace-out", str(bad)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot open trace file {str(bad)!r}: [Errno 2] No such file "
        f"or directory: {str(bad)!r}"]


def test_experiment_checks_trace_out_first(tmp_path, capsys):
    bad = tmp_path / "missing" / "trace.jsonl"
    assert main(["table3", "--trace-out", str(bad)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "running the full evaluation" not in captured.err
    assert str(bad) in captured.err
