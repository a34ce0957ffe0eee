import pytest

import gate
import run
import workloads


def test_job_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    # a machine at half the reference speed: every calibration takes twice as long
    monkeypatch.setattr(run, "calibration_s", lambda: 2 * run.REFERENCE_CALIBRATION_S)
    runner = run.Runner(workloads.generate("many_small", 1), gate.Gate())
    wall, scaled = runner.one_pass()
    assert len(wall) == len(scaled) == len(runner.docs)
    assert scaled == [pytest.approx(t / 2) for t in wall]
    assert runner.problems == []


def test_summary_reports_the_tail_percentile_from_eleven_samples():
    assert "tail" not in run.summarize(range(10))
    out = run.summarize(range(20))
    assert out["n"] == 20 and out["median"] == 9.5
    assert out["tail"] == {"percentile": 50, "value": 9}
