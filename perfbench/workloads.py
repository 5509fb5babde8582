"""The benchmark workloads: their CLI pipelines and output checks.

Each workload is a closed loop with one caller: the steps of one pass
run back to back through ``cpcapp.cli.cli_dispatch``. Inputs come only from
the CLI's own seeded generators, so the workload seed fully determines them.
The checks read the files the pipeline wrote and compare them with
references computed here, independently of cpcapp (scipy is the oracle; it
is imported only when checking, so set-up time does not include it).
"""

from __future__ import annotations

import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# Textured digits: 784 features (28x28). Sample counts are scaled down from the
# 5000+5000 default so one pass takes seconds and a run holds several.
DIGITS_SAMPLES = 800
# Filters fitted by both textured-digits fits.
FILTERS = 3
# Largest principal angle (radians) between the fitted filters and scipy's
# generalized-eigenproblem reference.
FILTER_ANGLE_TOL = 1e-6
# Relative gap allowed between the selected grid point's detection statistic
# and the reference maximum over the grid.
SWEEP_STAT_RTOL = 1e-6
# Default cPCA contrast grid, restated independently: {0} + 40 log-spaced points.
SWEEP_GRID = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 40)])
# Documented auto-loading rule, restated: load the background covariance with
# LOADING_SCALE * tr/M when its smallest eigenvalue is below EPS_FLOOR * tr/M.
LOADING_SCALE = 1e-6
EPS_FLOOR = 1e-10

SPLICE_TRAIN = 60
SPLICE_HELD_OUT = 8
SPLICE_SIDE = 128
SPLICE_BIG_SIDE = 512
# Candidate input seeds tried per workload seed (see SpliceLocalize.input_seed).
SPLICE_SEED_CANDIDATES = 20
# eval prints exactly what it computed; recomputation must agree to rounding.
METRIC_ATOL = 1e-12


@dataclass(frozen=True)
class Step:
    stage: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Independent readers for the files the pipelines write
# ---------------------------------------------------------------------------

def _read_table(path: Path) -> np.ndarray:
    """A cpcapp CSV (sample-major, no header) as a feature-major array."""
    return np.loadtxt(path, delimiter=",", ndmin=2).T


def _read_model(path: Path) -> dict:
    lines = path.read_text(encoding="ascii").splitlines()
    _method, m, k, _alpha, loading = lines[1].split()
    m, k = int(m), int(k)

    def rows(block):
        return np.array([[float(v) for v in line.split(",")] for line in block])

    model = {"loading": float(loading),
             "mean_fg": rows(lines[3:4])[0], "f": rows(lines[5:5 + m])}
    if len(lines) > 5 + m and lines[5 + m] == "W":
        model["w"] = rows(lines[6 + m:6 + 2 * m])
    if model["f"].shape != (m, k):
        raise ValueError(f"{path}: filter block has shape {model['f'].shape}, expected {(m, k)}")
    return model


def _read_pgm(path: Path) -> np.ndarray:
    """A binary P5 image as written by cpcapp: ``P5\\n<w> <h>\\n255\\n`` + raster."""
    magic, dims, maxval, raster = path.read_bytes().split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(raster) != width * height:
        raise ValueError(f"{path}: not an 8-bit P5 image of {width}x{height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _moments(fg: np.ndarray, bg: np.ndarray):
    z_f = fg - fg.mean(axis=1, keepdims=True)
    z_b = bg - bg.mean(axis=1, keepdims=True)
    return z_f @ z_f.T / fg.shape[1], z_b @ z_b.T / bg.shape[1]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def input_seed(self, work: Path, seed: int, dispatch) -> tuple[int, int]:
        """Seed for the pipeline's generators, and how many candidates were rejected."""
        return seed, 0

    def steps(self, work: Path, seed: int) -> list[Step]:
        raise NotImplementedError

    def outputs(self, work: Path) -> Path:
        """Directory holding everything one pass writes."""
        return work / "pipe"

    def check(self, work: Path, seed: int, captured: list) -> tuple[list[Check], dict]:
        """Output checks and quality figures for one pass.

        ``captured`` pairs each step of that pass with its stdout.
        """
        raise NotImplementedError


class DigitsPipeline(Workload):
    """generate textured-digits -> fit cpca++ -> fit cpca -> transform fg.csv
    through both models.

    The two fits run on the same data: cpca++ costs one 784x784 eigensolve,
    the cpca sweep over the default 41-point alpha grid one eigh per grid
    point plus the detection statistic, which rebuilds both covariances at
    every point. CSV text I/O and the digit generator make up most of the
    rest; splicing does not run.
    """

    name = "digits-pipeline"

    def steps(self, work, seed):
        out = self.outputs(work)
        data = out / "data"
        n = str(DIGITS_SAMPLES)
        fit = ("fit", "--fg", str(data / "fg.csv"), "--bg", str(data / "bg.csv"), "-k", str(FILTERS))
        return [
            Step("generate", ("generate", "textured-digits", "--seed", str(seed),
                              "--n-fg", n, "--n-bg", n, "--out", str(data))),
            Step("train", fit + ("--method", "cpca++", "--out", str(out / "model_pp.txt"))),
            Step("train", fit + ("--method", "cpca", "--out", str(out / "model_sweep.txt"))),
            Step("apply", ("transform", "--model", str(out / "model_pp.txt"),
                           "--in", str(data / "fg.csv"), "--out", str(out / "proj_pp.csv"))),
            Step("apply", ("transform", "--model", str(out / "model_sweep.txt"),
                           "--in", str(data / "fg.csv"), "--out", str(out / "proj_sweep.csv"))),
        ]

    def check(self, work, seed, captured):
        import scipy.linalg as sla

        out = self.outputs(work)
        fg = _read_table(out / "data" / "fg.csv")
        bg = _read_table(out / "data" / "bg.csv")
        clean = _read_table(out / "data" / "clean.csv")
        r_f, r_b = _moments(fg, bg)
        model = _read_model(out / "model_pp.txt")
        m, k = model["f"].shape
        _, ref = sla.eigh(r_f, r_b + model["loading"] * np.eye(m), subset_by_index=[m - k, m - 1])
        angle = float(np.max(sla.subspace_angles(model["f"], ref)))
        checks = [Check("filters-match-scipy", angle <= FILTER_ANGLE_TOL,
                        f"largest principal angle {angle:.3e} rad (tolerance {FILTER_ANGLE_TOL:g})")]
        checks.append(self._check_sweep(fg, bg, r_f, r_b, _read_model(out / "model_sweep.txt")))
        # Oblique denoising W F^T (x - mean_fg), correlated with the clean glyph.
        recon = model["w"] @ (model["f"].T @ (fg - model["mean_fg"][:, None]))
        recon -= recon.mean(axis=0)
        glyph = clean - clean.mean(axis=0)
        norms = np.linalg.norm(recon, axis=0) * np.linalg.norm(glyph, axis=0)
        corr = np.sum(recon * glyph, axis=0) / np.where(norms > 0, norms, 1.0)
        return checks, {"denoise_corr": float(np.mean(corr))}

    @staticmethod
    def _check_sweep(fg, bg, r_f, r_b, model) -> Check:
        """The sweep's selected filters score the grid's largest statistic."""
        import scipy.linalg as sla

        m, k = model["f"].shape
        mean_diag = np.trace(r_b) / m
        low = sla.eigvalsh(r_b, subset_by_index=[0, 0])[0]
        loading = LOADING_SCALE * mean_diag if low < EPS_FLOOR * mean_diag else 0.0
        loaded = r_b + loading * np.eye(m)
        numer_f = sla.cho_factor(loaded)
        denom_f = sla.cho_factor(fg.shape[1] / bg.shape[1] * r_f + loaded)

        def statistic(w):
            _, numer = np.linalg.slogdet(w.T @ sla.cho_solve(numer_f, w))
            _, denom = np.linalg.slogdet(w.T @ sla.cho_solve(denom_f, w))
            return math.exp(numer - denom)

        reference = max(
            statistic(sla.eigh(r_f - alpha * r_b, subset_by_index=[m - k, m - 1])[1])
            for alpha in SWEEP_GRID
        )
        chosen = statistic(model["f"])
        gap = abs(chosen - reference) / reference
        return Check("sweep-picks-max-statistic", gap <= SWEEP_STAT_RTOL,
                     f"selected statistic {chosen:.12g}, reference max {reference:.12g}, "
                     f"relative gap {gap:.2e} (tolerance {SWEEP_STAT_RTOL:g})")


class SpliceLocalize(Workload):
    """Generate probes, train-splice, then localize + eval every held-out probe.

    The Python loops in splicing and netpbm I/O dominate; no CSV I/O, and
    the linear algebra works on 192 dimensions (8x8x3 patches).
    """

    name = "splice-localize"

    def input_seed(self, work, seed, dispatch):
        """First candidate seed for which every image generates.

        ``gen_spliced_image`` raises ArgumentError for roughly 0.7% of image
        seeds (the drawn polygon never reaches its target area), so about a
        third of 69-image seed sets fail. This workload measures speed, not
        that defect: it takes candidates ``seed * 20 + j`` in order, runs their
        generate commands untimed, and reports how many it had to reject.
        """
        probe = work / "probe"
        for j in range(SPLICE_SEED_CANDIDATES):
            candidate = seed * SPLICE_SEED_CANDIDATES + j
            ok = all(dispatch(list(step.argv)) == 0
                     for step in self.steps(probe, candidate) if step.stage == "generate")
            shutil.rmtree(probe, ignore_errors=True)
            if ok:
                return candidate, j
        raise RuntimeError(f"no seed set among {SPLICE_SEED_CANDIDATES} candidates generates")

    def _held_out(self, work):
        """(probe, truth) paths of every held-out probe, the large one last."""
        out = self.outputs(work)
        pairs = [(out / "test" / f"probe_{i:03d}.ppm", out / "test" / f"edge_{i:03d}.pgm")
                 for i in range(SPLICE_HELD_OUT)]
        return pairs + [(out / "big" / "probe_000.ppm", out / "big" / "edge_000.pgm")]

    def steps(self, work, seed):
        out = self.outputs(work)
        side, big = str(SPLICE_SIDE), str(SPLICE_BIG_SIDE)
        steps = [
            Step("generate", ("generate", "spliced-image", "--seed", str(3 * seed),
                              "--count", str(SPLICE_TRAIN), "--width", side, "--height", side,
                              "--out", str(out / "train"))),
            Step("generate", ("generate", "spliced-image", "--seed", str(3 * seed + 1),
                              "--count", str(SPLICE_HELD_OUT), "--width", side, "--height", side,
                              "--out", str(out / "test"))),
            Step("generate", ("generate", "spliced-image", "--seed", str(3 * seed + 2),
                              "--count", "1", "--width", big, "--height", big,
                              "--out", str(out / "big"))),
            Step("train", ("train-splice", "--train-dir", str(out / "train"),
                           "--out", str(out / "model.txt"))),
        ]
        for i, (probe, truth) in enumerate(self._held_out(work)):
            pred = out / f"map_{i:03d}.pgm"
            steps.append(Step("apply", ("localize", "--model", str(out / "model.txt"),
                                        "--image", str(probe), "--out", str(pred))))
            steps.append(Step("apply", ("eval", "--pred", str(pred), "--truth", str(truth))))
        return steps

    def check(self, work, seed, captured):
        out = self.outputs(work)
        printed_all = [text for step, text in captured if step.argv[0] == "eval"]
        checks, f1s, mccs = [], [], []
        for i, (_, truth_path) in enumerate(self._held_out(work)):
            pred = _read_pgm(out / f"map_{i:03d}.pgm").astype(float) / 255.0 >= 0.5
            truth = _read_pgm(truth_path) > 0
            tp = int(np.sum(pred & truth))
            tn = int(np.sum(~pred & ~truth))
            fp = int(np.sum(pred & ~truth))
            fn = int(np.sum(~pred & truth))
            f1 = 2 * tp / (2 * tp + fn + fp) if 2 * tp + fn + fp else 0.0
            product = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            mcc = (tp * tn - fp * fn) / math.sqrt(product) if product else 0.0
            printed = re.fullmatch(r"F1=(\S+) MCC=(\S+)\s*", printed_all[i]) \
                if i < len(printed_all) else None
            ok = printed is not None and all(
                abs(float(v) - ref) <= METRIC_ATOL for v, ref in zip(printed.groups(), (f1, mcc))
            )
            checks.append(Check(f"eval-{i}-matches-map", ok,
                                f"recomputed F1={f1:.6f} MCC={mcc:.6f}, eval printed "
                                f"{printed.group(0).strip() if printed else 'nothing parseable'}"))
            f1s.append(f1)
            mccs.append(mcc)
        return checks, {"f1": float(np.mean(f1s)), "mcc": float(np.mean(mccs))}


WORKLOADS = {w.name: w for w in (DigitsPipeline(), SpliceLocalize())}
