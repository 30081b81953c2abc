"""The benchmark's own output checks pass on working code."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_desk_compare_round_passes_every_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import DeskCompare

    # seed 1706 once put trend-pair average pooling at 0.53, off exact chance
    workload = DeskCompare(1706, tmp_path)
    workload.setup()
    checked = workload.check(workload.run_round())
    assert checked.attempted == 12
    assert checked.failed == 0, checked.problems
