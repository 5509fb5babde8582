"""Fit-time comparison across the three reduction methods.

Wall-clock numbers are machine artifacts, so the report also carries the
eigendecomposition counts, which are platform independent: the contrast
sweep spends one decomposition per grid value while the sweep-free method
always spends exactly one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datagen import sample_tables
from .errors import ArgumentError
from .linalg import eig_count, reset_eig_count
from .reducers import METHODS, default_alpha_grid, fit_cpcapp, fit_pca, sweep_cpca
from .stats import DataMatrix, build_covariance_pair

TIMING_REPEATS = 5


@dataclass(frozen=True)
class BenchReport:
    dataset: str
    seconds: dict[str, float]     # per-method wall-clock for one fit
    eig_counts: dict[str, int]    # per-method symmetric eigendecompositions

    @property
    def speedup(self) -> float | None:
        """time_cpca / time_cpcapp when both ran."""
        if "cpca" in self.seconds and "cpca++" in self.seconds:
            return self.seconds["cpca"] / self.seconds["cpca++"]
        return None

    def format(self) -> str:
        lines = [f"dataset: {self.dataset}", f"{'method':<8} {'seconds':>12} {'eigs':>6}"]
        for method in METHODS:
            if method in self.seconds:
                lines.append(
                    f"{method:<8} {self.seconds[method]:>12.6f} {self.eig_counts[method]:>6d}"
                )
        if self.speedup is not None:
            lines.append(f"speedup cpca/cpca++: {self.speedup:.2f}x")
        return "\n".join(lines)


def run_bench(kind: str, seed: int, n_fg: int, n_bg: int, methods=METHODS, alphas=None,
              k: int = 2) -> BenchReport:
    """Fit each method on identical inputs; report times and eig counts.

    The methods' ``TIMING_REPEATS`` repeats are interleaved round-robin and
    the minimum wall-clock of each kept, so scheduler noise at microsecond
    scales and bursts of machine load fall on every method alike.
    """
    if not methods:
        raise ArgumentError("no methods to benchmark")
    for method in methods:
        if method not in METHODS:
            raise ArgumentError(f"unknown method {method!r}")
    if alphas is None:
        alphas = default_alpha_grid()
    alphas = np.asarray(list(alphas), dtype=float)
    tables = sample_tables(kind, seed, n_fg, n_bg)
    fg_data, bg_data = DataMatrix(values=tables["fg"]), DataMatrix(values=tables["bg"])
    del tables  # the kind's other tables are not benchmarked
    pair = build_covariance_pair(bg_data, fg_data)

    fits = {
        "pca": lambda: fit_pca(fg_data, k),
        "cpca": lambda: sweep_cpca(pair, k, alphas),
        "cpca++": lambda: fit_cpcapp(pair, k),
    }
    seconds = dict.fromkeys(methods, float("inf"))
    counts: dict[str, int] = {}
    for _ in range(TIMING_REPEATS):
        for method in methods:
            reset_eig_count()
            start = time.perf_counter()
            fits[method]()
            seconds[method] = min(seconds[method], max(time.perf_counter() - start, 1e-12))
            counts[method] = eig_count()
    descriptor = f"{kind} seed={seed} n_fg={n_fg} n_bg={n_bg} k={k} alphas={len(alphas)}"
    return BenchReport(dataset=descriptor, seconds=seconds, eig_counts=counts)
