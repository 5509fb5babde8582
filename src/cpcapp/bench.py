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

from .datagen import gen_four_class, gen_textured_digits, sample_haystack
from .errors import ArgumentError
from .linalg import eig_count, reset_eig_count
from .reducers import default_alpha_grid, fit_cpcapp, fit_pca, sweep_cpca
from .stats import build_covariance_pair

BENCH_METHODS = ("pca", "cpca", "cpca++")
TIMING_REPEATS = 5


@dataclass(frozen=True)
class BenchReport:
    dataset: str
    seconds: dict[str, float]     # per-method wall-clock for one fit
    eig_counts: dict[str, int]    # per-method symmetric eigendecompositions
    speedup: float | None         # time_cpca / time_cpcapp when both ran

    def format(self) -> str:
        lines = [f"dataset: {self.dataset}", f"{'method':<8} {'seconds':>12} {'eigs':>6}"]
        for method in BENCH_METHODS:
            if method in self.seconds:
                lines.append(
                    f"{method:<8} {self.seconds[method]:>12.6f} {self.eig_counts[method]:>6d}"
                )
        if self.speedup is not None:
            lines.append(f"speedup cpca/cpca++: {self.speedup:.2f}x")
        return "\n".join(lines)


def _bench_data(kind: str, seed: int, n_fg: int, n_bg: int):
    if kind == "four-class":
        fg, bg = gen_four_class(seed, n_fg, n_bg)
        return fg.data, bg
    if kind == "textured-digits":
        fg, bg, _ = gen_textured_digits(seed, n_fg, n_bg)
        return fg.data, bg
    if kind == "haystack":
        return sample_haystack(seed, n_fg, n_bg)
    raise ArgumentError(f"cannot benchmark dataset kind {kind!r}")


def run_bench(kind: str, seed: int, n_fg: int, n_bg: int, methods=BENCH_METHODS, alphas=None,
              k: int = 2, repeats: int = TIMING_REPEATS) -> BenchReport:
    """Fit each method on identical inputs; report times and eig counts.

    The methods' repeats are interleaved round-robin and the minimum
    wall-clock of each kept, so scheduler noise at microsecond scales and
    bursts of machine load fall on every method alike.
    """
    for method in methods:
        if method not in BENCH_METHODS:
            raise ArgumentError(f"unknown method {method!r}")
    if alphas is None:
        alphas = default_alpha_grid()
    alphas = np.asarray(list(alphas), dtype=float)
    fg_data, bg_data = _bench_data(kind, seed, n_fg, n_bg)
    pair = build_covariance_pair(bg_data, fg_data)

    fits = {
        "pca": lambda: fit_pca(fg_data, k),
        "cpca": lambda: sweep_cpca(pair, k, alphas),
        "cpca++": lambda: fit_cpcapp(pair, k),
    }
    seconds = dict.fromkeys(methods, float("inf"))
    counts: dict[str, int] = {}
    for _ in range(max(1, repeats)):
        for method in methods:
            reset_eig_count()
            start = time.perf_counter()
            fits[method]()
            seconds[method] = min(seconds[method], max(time.perf_counter() - start, 1e-12))
            counts[method] = eig_count()
    speedup = None
    if "cpca" in seconds and "cpca++" in seconds:
        speedup = seconds["cpca"] / seconds["cpca++"]
    descriptor = f"{kind} seed={seed} n_fg={n_fg} n_bg={n_bg} k={k} alphas={len(alphas)}"
    return BenchReport(dataset=descriptor, seconds=seconds, eig_counts=counts, speedup=speedup)
