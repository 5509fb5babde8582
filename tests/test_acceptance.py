"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute. Everything here is seed-fixed and deterministic.
"""

import math
import time
from unittest import mock

import numpy as np
import pytest

import cpcapp as cp
from cpcapp.cli import cli_dispatch

SEED_FOUR_CLASS = 33
SEED_SPLICE = 7
SEED_DIGITS_TRAIN = 1000


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def four_class_400():
    fg, bg = cp.gen_four_class(SEED_FOUR_CLASS, 400, 400)
    return fg, bg


@pytest.fixture(scope="module")
def four_class_10k():
    fg, bg = cp.gen_four_class(SEED_FOUR_CLASS, 10_000, 10_000)
    return fg, bg


@pytest.fixture(scope="module")
def example1():
    r_b, r_f, c, a = cp.gen_haystack()
    pair = cp.CovariancePair(r_b=r_b, r_f=r_f, loading=0.0, n_b=1000, n_f=1000,
                             mean_b=np.zeros(4), mean_f=np.zeros(4))
    return pair, c, a


@pytest.fixture(scope="module")
def splicing_run():
    start = time.perf_counter()
    seeds = cp.SplitMix64(SEED_SPLICE).spawn_seeds(25)
    train = ((s, *cp.gen_spliced_image(s)[:2]) for s in seeds[:20])
    bank = cp.fit_cpcapp(cp.splice_pair(train), 6)
    f1s, mccs, baselines = [], [], []
    for s in seeds[20:]:  # localized as the localize command does
        probe, _, edge_truth = cp.gen_spliced_image(s)
        edge = cp.edge_mask(probe)
        scores, lattice = cp.score_lattice(bank, probe, 4)
        prob_map = cp.reconstruct_map(scores, lattice, edge)
        counts = cp.binarize_and_score(prob_map, edge_truth, 0.5)
        f1s.append(cp.f1_score(counts))
        mccs.append(cp.mcc_score(counts))
        baselines.append(cp.random_scorer_expected_f1(edge, edge_truth))
    elapsed = time.perf_counter() - start
    return f1s, mccs, baselines, elapsed


def test_criterion_1_closed_form_filter_recovery():
    start = time.perf_counter()
    u = cp.oracle_four_class_filters()
    cosines = {}
    for n in (400, 10_000):
        fg, bg = cp.gen_four_class(SEED_FOUR_CLASS, n, n)
        bank = cp.fit_cpcapp(cp.build_covariance_pair(bg, fg.data), 2)
        cosines[n] = min(abs(bank.f[:, 0] @ u[:, 0]), abs(bank.f[:, 1] @ u[:, 1]))
    elapsed = time.perf_counter() - start
    ok = cosines[400] >= 0.95 and cosines[10_000] >= 0.99 and elapsed < 5.0
    assert report(1, ok, f"|cos| {cosines[400]:.4f} at N=400, {cosines[10_000]:.4f} "
                         f"at N=10000, {elapsed:.2f}s incl. generation")


def test_criterion_2_analytic_eigenvalues():
    values = cp.sym_eig(cp.analytic_four_class_q(), 30).values
    ok = abs(values[0] - 30.33) <= 0.01 and abs(values[1] - 23.50) <= 0.01
    assert report(2, ok, f"top eigenvalues {values[0]:.4f}, {values[1]:.4f}")


def test_criterion_3_planted_direction_example(example1):
    start = time.perf_counter()
    pair, c, a = example1
    cpp = cp.fit_cpcapp(pair, 1)
    cos_cpp = abs(cpp.f[:, 0] @ c)
    pca_top = cp.sym_eig(pair.r_f, pair.features).vectors[:, 0]
    cos_pca = abs(pca_top @ a)
    cpca = cp.fit_cpca(pair, 1, 5.0 / 10.0)
    cos_cpca = abs(cpca.f[:, 0] @ c)
    elapsed = time.perf_counter() - start
    ok = cos_cpp >= 0.99 and cos_pca >= 0.99 and cos_cpca >= 0.99 and elapsed < 1.0
    assert report(3, ok, f"cpca++ -> c {cos_cpp:.4f}, pca -> a {cos_pca:.4f}, "
                         f"cpca(beta/gamma) -> c {cos_cpca:.4f}, {elapsed:.2f}s")


def test_criterion_4_pca_negative_control(four_class_10k):
    fg, _ = four_class_10k
    bank = cp.fit_pca(fg.data, 2)
    mass = float(np.sum(bank.f[20:30] ** 2)) / 2.0
    proj = cp.transform(bank, fg.data)
    centroids = np.stack([proj[:, fg.labels == k].mean(axis=1) for k in range(4)])
    between = max(np.linalg.norm(centroids[i] - centroids[j])
                  for i in range(4) for j in range(i + 1, 4))
    within = float(np.mean([proj[:, fg.labels == k].std() for k in range(4)]))
    ok = mass >= 0.8 and between < within
    assert report(4, ok, f"noise-block mass {mass:.3f}, between {between:.2f} "
                         f"< within {within:.2f}")


def test_criterion_5_contrast_zero_matches_pca(four_class_400):
    fg, bg = four_class_400
    pair = cp.build_covariance_pair(bg, fg.data)
    contrast = cp.fit_cpca(pair, 2, 0.0)
    pca = cp.fit_pca(fg.data, 2)
    q1, _ = np.linalg.qr(contrast.f)
    q2, _ = np.linalg.qr(pca.f)
    angles = np.arccos(np.clip(np.linalg.svd(q1.T @ q2, compute_uv=False), -1, 1))
    ok = angles.max() < 1e-6
    assert report(5, ok, f"max principal angle {angles.max():.2e}")


def test_criterion_6_sweep_free_efficiency():
    start = time.perf_counter()
    fg, bg = cp.gen_four_class(SEED_FOUR_CLASS, 400, 400)
    pair = cp.build_covariance_pair(bg, fg.data)
    fits = {"cpca": lambda: cp.sweep_cpca(pair, 2, cp.default_alpha_grid()),
            "cpca++": lambda: cp.fit_cpcapp(pair, 2)}
    eighs = {}
    for method, fit in fits.items():
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            fit()
        eighs[method] = eigh.call_count
    # timed unwrapped: 5 interleaved repeats, the minimum of each kept, so
    # scheduler noise and bursts of machine load fall on both fits alike
    seconds = dict.fromkeys(fits, math.inf)
    for _ in range(5):
        for method, fit in fits.items():
            tick = time.perf_counter()
            fit()
            seconds[method] = min(seconds[method], time.perf_counter() - tick)
    speedup = seconds["cpca"] / seconds["cpca++"]
    elapsed = time.perf_counter() - start
    ok = eighs["cpca"] == 41 and eighs["cpca++"] == 1 and speedup >= 10.0 and elapsed < 30.0
    assert report(6, ok, f"eigh counts {eighs['cpca']}:{eighs['cpca++']}, "
                         f"speedup {speedup:.1f}x, {elapsed:.1f}s")


def test_criterion_7_factorization_contracts():
    gen = np.random.default_rng(123)
    worst_bio, worst_idem = 0.0, 0.0
    for _ in range(100):
        m = int(gen.integers(2, 51))
        k = int(gen.integers(1, min(m, 5) + 1))
        a = gen.standard_normal((m, m))
        r_b = a @ a.T + np.eye(m)
        b = gen.standard_normal((m, max(k, int(gen.integers(1, m + 1)))))
        r_f = b @ b.T
        pair = cp.CovariancePair(r_b=r_b, r_f=r_f, loading=0.0, n_b=m, n_f=m,
                                 mean_b=np.zeros(m), mean_f=np.zeros(m))
        model = cp.recover_w(pair, cp.fit_cpcapp(pair, k))
        worst_bio = max(worst_bio, float(np.max(np.abs(model.f.T @ model.w - np.eye(k)))))
        p = model.w @ model.f.T
        worst_idem = max(worst_idem, float(np.linalg.norm(p @ p - p, "fro")
                                           / np.linalg.norm(p, "fro")))
    ok = worst_bio <= 1e-7 and worst_idem <= 1e-6
    assert report(7, ok, f"worst |F^T W - I| {worst_bio:.2e}, "
                         f"worst idempotence residual {worst_idem:.2e}")


def test_criterion_8_glrt_sanity():
    fg, bg = cp.sample_haystack(17, 2000, 2000)
    pair = cp.build_covariance_pair(bg, fg)
    model = cp.recover_w(pair, cp.fit_cpcapp(pair, 1))
    best = cp.glrt_statistic(pair, model.w)
    gen = np.random.default_rng(7)
    rand_max = max(cp.glrt_statistic(pair, gen.standard_normal((4, 1))) for _ in range(100))
    z = cp.DataMatrix(values=np.random.default_rng(5).standard_normal((5, 60)))
    twin = cp.glrt_statistic(cp.build_covariance_pair(z, z),
                             np.random.default_rng(6).standard_normal((5, 3)))
    ok = best >= rand_max and math.isclose(twin, 8.0, rel_tol=1e-6)
    assert report(8, ok, f"optimal {best:.4f} >= random max {rand_max:.4f}, "
                         f"identical-batch statistic {twin:.8f} vs 2^3")


def test_criterion_9_denoising_beats_pca():
    fg, bg, _ = cp.gen_textured_digits(SEED_DIGITS_TRAIN, 3000, 3000)
    pair = cp.build_covariance_pair(bg, fg.data)
    bank = cp.fit_cpcapp(pair, 3)
    model = cp.recover_w(pair, bank)
    pca = cp.fit_pca(fg.data, 3)

    def corr(x, y):
        x = x - x.mean()
        y = y - y.mean()
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        return float(x @ y / (nx * ny)) if nx > 0 and ny > 0 else 0.0

    ours, base = [], []
    for seed in range(1, 51):
        test_fg, _, clean = cp.gen_textured_digits(seed, 1, 1)
        z = test_fg.data.values[:, 0]
        g = clean.values[:, 0]
        ours.append(corr(cp.denoise(model, z - bank.train_mean_fg), g))
        base.append(corr(pca.f @ (pca.f.T @ (z - pca.train_mean_fg)), g))
    margin = float(np.mean(ours) - np.mean(base))
    ok = margin >= 0.1
    assert report(9, ok, f"mean corr {np.mean(ours):.3f} vs pca {np.mean(base):.3f}, "
                         f"margin {margin:.3f} over 50 seeds")


def test_criterion_10_splicing_end_to_end(splicing_run):
    f1s, mccs, baselines, elapsed = splicing_run
    mean_f1, mean_base = float(np.mean(f1s)), float(np.mean(baselines))
    mean_mcc = float(np.mean(mccs))
    ok = mean_f1 >= 2.0 * mean_base and mean_mcc > 0 and elapsed < 120.0
    assert report(10, ok, f"mean F1 {mean_f1:.3f} vs baseline {mean_base:.3f} "
                          f"({mean_f1 / mean_base:.2f}x), mean MCC {mean_mcc:.3f}, "
                          f"{elapsed:.1f}s")


def test_criterion_11_metric_oracles():
    gen = np.random.default_rng(42)
    exact = True
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in gen.integers(0, 10_000, 4))
        c = cp.ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        denom = 2 * tp + fn + fp
        f1_want = (2 * tp / denom) if denom else 0.0
        prod = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        mcc_want = ((tp * tn - fp * fn) / math.sqrt(prod)) if prod else 0.0
        exact &= cp.f1_score(c) == f1_want and cp.mcc_score(c) == mcc_want
    degenerate = (cp.f1_score(cp.ConfusionCounts(0, 5, 0, 0)) == 0.0
                  and cp.mcc_score(cp.ConfusionCounts(0, 5, 0, 0)) == 0.0)
    ok = exact and degenerate
    assert report(11, ok, "1000 random tallies match the formula oracle exactly; "
                          "degenerate denominators return 0")


def test_criterion_12_cli_determinism(tmp_path):
    def run_pipeline(root):
        root.mkdir()
        data = root / "data"
        model = root / "model.txt"
        out_map = root / "map.pgm"
        assert cli_dispatch(["generate", "spliced-image", "--seed", str(SEED_SPLICE),
                             "--count", "12", "--out", str(data)]) == 0
        assert cli_dispatch(["train-splice", "--train-dir", str(data),
                             "--out", str(model)]) == 0
        assert cli_dispatch(["localize", "--model", str(model),
                             "--image", str(data / "probe_011.ppm"),
                             "--out", str(out_map)]) == 0
        four = root / "four"
        assert cli_dispatch(["generate", "four-class", "--seed", "3", "--out", str(four),
                             "--n-fg", "120", "--n-bg", "120"]) == 0
        fit_model = root / "fc.txt"
        assert cli_dispatch(["fit", "--fg", str(four / "fg.csv"), "--bg", str(four / "bg.csv"),
                             "--method", "cpca++", "-k", "2", "--out", str(fit_model)]) == 0
        y = root / "y.csv"
        assert cli_dispatch(["transform", "--model", str(fit_model),
                             "--in", str(four / "fg.csv"), "--out", str(y)]) == 0
        return sorted(p for p in root.rglob("*") if p.is_file())

    files_a = run_pipeline(tmp_path / "a")
    files_b = run_pipeline(tmp_path / "b")
    names_a = [p.relative_to(tmp_path / "a") for p in files_a]
    names_b = [p.relative_to(tmp_path / "b") for p in files_b]
    same_names = names_a == names_b
    same_bytes = all(a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))
    ok = same_names and same_bytes
    assert report(12, ok, f"{len(files_a)} output files byte-identical across reruns")
