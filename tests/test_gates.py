"""The gate registry and the tracked reports it writes."""

import json
from pathlib import Path

import pytest

from repro.bench import gates
from repro.bench.gates import GATES, TRACE_FILE

ROOT = Path(__file__).resolve().parents[1]


def test_names_and_reports_are_unique():
    assert len({g.name for g in GATES}) == len(GATES)
    assert len({g.report for g in GATES}) == len(GATES)


@pytest.mark.parametrize("gate", GATES, ids=lambda g: g.name)
def test_tracked_report_records_its_own_verdict(gate):
    path = ROOT / gate.report
    assert path.is_file(), f"{gate.report} is not tracked"
    report = json.loads(path.read_text())
    assert gate.failures(report) == report["failures"]


def test_tracked_trace_exists():
    assert (ROOT / TRACE_FILE).is_file()


class TestMain:
    @staticmethod
    def _fake(monkeypatch, tmp_path, verdicts):
        """Swap GATES for stubs whose reports fail with ``verdicts``."""
        def gate(name, failures):
            def run(smoke):
                if failures is None:
                    raise RuntimeError("boom")
                return {"smoke": smoke, "fail": failures}
            return gates.Gate(name, f"{name}.json", run,
                              lambda report: list(report["fail"]))
        monkeypatch.setattr(gates, "GATES", tuple(
            gate(name, failures) for name, failures in verdicts))
        monkeypatch.chdir(tmp_path)

    def test_runs_every_gate_and_writes_verdicts(self, monkeypatch,
                                                 tmp_path, capsys):
        self._fake(monkeypatch, tmp_path,
                   [("a", []), ("b", ["too slow", "wrong"]), ("c", [])])
        assert gates.main(["--smoke"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS a", "FAIL b: too slow", "FAIL b: wrong", "PASS c",
        ]
        b = json.loads((tmp_path / "b.json").read_text())
        assert b == {"smoke": True, "fail": ["too slow", "wrong"],
                     "failures": ["too slow", "wrong"]}

    def test_named_gates_only(self, monkeypatch, tmp_path, capsys):
        self._fake(monkeypatch, tmp_path, [("a", []), ("b", ["x"])])
        assert gates.main(["a"]) == 0
        assert capsys.readouterr().out.splitlines() == ["PASS a"]
        assert not (tmp_path / "b.json").exists()
        a = json.loads((tmp_path / "a.json").read_text())
        assert a["smoke"] is False and a["failures"] == []

    def test_a_crash_fails_its_gate_and_the_run_goes_on(
            self, monkeypatch, tmp_path, capsys):
        self._fake(monkeypatch, tmp_path, [("a", None), ("b", [])])
        assert gates.main([]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["FAIL a: raised RuntimeError('boom')", "PASS b"]

    def test_unknown_name_is_rejected(self, monkeypatch, tmp_path):
        self._fake(monkeypatch, tmp_path, [("a", [])])
        with pytest.raises(SystemExit) as exc:
            gates.main(["nope"])
        assert exc.value.code == 2
