"""The cold CLI runner and its in-child speed probes."""

from pathlib import Path

from perfbench import run, workloads


def test_cold_round_runs_each_command_fresh_and_probes_in_the_child(tmp_path):
    cold = run.ColdCli()
    results = cold.round(workloads.cold_cli(run.ROOT, tmp_path)[:1])
    assert [r.failed for r in results] == [False]
    taken, mean = cold.probing
    assert 0 < taken < results[0].elapsed_s and mean > 0
    assert cold.peak_mb > 1


def test_peak_rss_reads_vmhwm():
    status = "Name:\tpython3\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n"
    assert run.peak_rss_mb(status) == 20.0
    assert run.peak_rss_mb(Path("/proc/self/status").read_text()) > 1
