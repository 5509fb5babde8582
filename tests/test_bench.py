"""Benchmark harness: decomposition counts are exact, times directional."""

import numpy as np
import pytest

from cpcapp import ArgumentError, run_bench


@pytest.fixture(scope="module")
def report():
    return run_bench("four-class", 1, 400, 400, alphas=np.linspace(0.01, 10.0, 40), k=2)


class TestRunBench:
    def test_eig_counts(self, report):
        assert report.eig_counts["cpca"] == 40
        assert report.eig_counts["cpca++"] == 1
        assert report.eig_counts["pca"] == 1

    def test_sweep_slower_than_single_fit(self, report):
        assert report.seconds["cpca++"] < report.seconds["cpca"]
        assert report.speedup == pytest.approx(
            report.seconds["cpca"] / report.seconds["cpca++"]
        )

    def test_single_decomposition_methods_comparable(self, report):
        ratio = report.seconds["pca"] / report.seconds["cpca++"]
        assert 0.2 <= ratio <= 5.0

    def test_times_positive(self, report):
        assert all(t > 0 for t in report.seconds.values())

    def test_format_mentions_all_methods(self, report):
        text = report.format()
        for method in ("pca", "cpca", "cpca++", "speedup"):
            assert method in text

    def test_rejects_unknown_method(self):
        with pytest.raises(ArgumentError):
            run_bench("four-class", 0, 50, 50, methods=("pca", "nope"))
