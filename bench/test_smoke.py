"""Smoke test: the smallest instance of each benchmark workload passes its check."""

import run


def test_smallest_instance_of_each_workload_passes_its_check():
    verdicts = run.smoke()
    assert [w for w, _, _ in verdicts] == list(run.WORKLOADS)
    assert [f for _, _, f in verdicts] == [None] * len(verdicts), verdicts
