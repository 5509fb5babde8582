"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data/processing error. All numeric
output is written with 17 significant digits so reruns with the same seed
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import csvio, netpbm
from .datagen import PROBE_SIDE, TABLE_COUNTS, TABLE_NAMES, check_counts, check_size, \
    gen_spliced_image, sample_table
from .errors import ArgumentError, CpcappError, ShapeError
from .factorization import FactorModel, denoise, glrt_statistic, recover_w
from .model_io import load_model, save_model
from .reducers import METHODS, default_alpha_grid, fit_cpca, fit_cpcapp, fit_pca, transform
from .rng import SplitMix64
from .splicing import BG_EDGE_MIN, FG_SPLICE_RANGE, PATCH_SIZE, PATCH_STRIDE, \
    SCORE_THRESHOLD, SPLICE_K, ProbabilityMap, binarize_and_score, edge_mask, f1_score, \
    mcc_score, reconstruct_map, score_lattice, score_patches, splice_pair
from .stats import Moments, build_covariance_pair, second_moment


# Probes ``generate spliced-image`` writes when --count is not given.
IMAGE_COUNT = 25


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit(2) -> exception, mapped to exit code 1
        raise UsageError(message)


def _parse_alpha_grid(spec: str) -> np.ndarray:
    if spec == "default":
        return default_alpha_grid()
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad alpha grid {spec!r}, expected 'lo:hi:count' or 'default': {exc}") from exc
    if not 0 < lo < hi < math.inf or count < 1:
        raise argparse.ArgumentTypeError("alpha grid needs 0 < lo < hi < inf and count >= 1")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cpcapp", description="discriminative dimensionality reduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    kinds = gen.add_subparsers(dest="kind", required=True)
    for kind in [*TABLE_COUNTS, "spliced-image"]:
        one = kinds.add_parser(kind)
        one.add_argument("--seed", type=int, default=0)
        one.add_argument("--out", required=True)
        if kind in TABLE_COUNTS:
            one.add_argument("--n-fg", type=int, default=TABLE_COUNTS[kind][0])
            one.add_argument("--n-bg", type=int, default=TABLE_COUNTS[kind][1])
        else:
            one.add_argument("--count", type=int, default=IMAGE_COUNT)
            one.add_argument("--width", type=int, default=PROBE_SIDE)
            one.add_argument("--height", type=int, default=PROBE_SIDE)

    fit = sub.add_parser("fit", help="fit a reduction model on CSV data")
    fit.add_argument("--fg", required=True)
    fit.add_argument("--bg")
    fit.add_argument("--method", choices=METHODS, required=True)
    fit.add_argument("-k", type=int, default=2)
    alpha = fit.add_mutually_exclusive_group()
    alpha.add_argument("--alpha", type=float, help="cpca only")
    alpha.add_argument("--alpha-grid", type=_parse_alpha_grid, help="cpca only")
    fit.add_argument("--out", required=True)

    applying = {}  # the commands that run a model over one input file
    for name, text in (("transform", "project CSV samples through a model"),
                       ("score", "per-sample probability scores through a model"),
                       ("denoise", "project an image onto the learned basis")):
        applying[name] = sub.add_parser(name, help=text)
        applying[name].add_argument("--model", required=True)
        applying[name].add_argument("--in", dest="infile", required=True)
        applying[name].add_argument("--out", required=True)
    applying["denoise"].add_argument("-k", type=int)

    loc = sub.add_parser("localize", help="boundary probability map for a probe image")
    loc.add_argument("--model", required=True)
    loc.add_argument("--image", required=True)
    loc.add_argument("--out", required=True)
    loc.add_argument("--stride", type=int, default=PATCH_STRIDE)

    trs = sub.add_parser("train-splice", help="fit a localization model from probe/mask pairs")
    trs.add_argument("--train-dir", required=True)
    trs.add_argument("--out", required=True)
    trs.add_argument("--n", type=int, default=PATCH_SIZE)
    trs.add_argument("--stride", type=int, default=PATCH_STRIDE)
    trs.add_argument("-k", type=int, default=SPLICE_K)
    trs.add_argument("--fg-lo", type=float, default=FG_SPLICE_RANGE[0])
    trs.add_argument("--fg-hi", type=float, default=FG_SPLICE_RANGE[1])
    trs.add_argument("--bg-edge-min", type=float, default=BG_EDGE_MIN)

    eva = sub.add_parser("eval", help="score a probability map against a truth mask")
    eva.add_argument("--pred", required=True)
    eva.add_argument("--truth", required=True)
    eva.add_argument("--threshold", type=float, default=SCORE_THRESHOLD)

    return parser


def _reject_flags(args, flags, target: str) -> None:
    """A UsageError naming the first of ``flags`` given: none of them applies to ``target``."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"{flag} does not apply to {target}")


def _cmd_generate(args) -> int:
    out = Path(args.out)
    if args.kind != "spliced-image":
        check_counts(args.n_fg, args.n_bg)  # here, once, rather than in every worker
        run, jobs = _write_table, [(out / f"{name}.csv", args.kind, name, args.seed, args.n_fg,
                                    args.n_bg) for name in TABLE_NAMES[args.kind]]
    else:
        if args.count < 1:
            raise ArgumentError(f"--count must be at least 1, got {args.count}")
        check_size(args.height, args.width)  # here, once, rather than in every worker
        run, jobs = _write_probe, [(out, i, seed, args.height, args.width) for i, seed
                                   in enumerate(SplitMix64(args.seed).spawn_seeds(args.count))]
    out.mkdir(parents=True, exist_ok=True)
    _run_jobs(run, jobs)
    return 0


def _write_table(path: Path, kind: str, name: str, seed: int, n_fg: int, n_bg: int) -> None:
    csvio.write_csv(path, sample_table(kind, name, seed, n_fg, n_bg))


def _write_probe(out: Path, i: int, seed: int, height: int, width: int) -> None:
    probe, surface, edge = gen_spliced_image(seed, height=height, width=width)
    netpbm.write_image(out / f"probe_{i:03d}.ppm", probe)
    netpbm.write_image(out / f"surface_{i:03d}.pgm", surface)
    netpbm.write_image(out / f"edge_{i:03d}.pgm", edge)


def _worker_count(jobs: int) -> int:
    """One worker per CPU this process may run on, at most one per job; 1 without ``os.fork``."""
    import os

    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus))


def _run_jobs(run, jobs: list) -> list:
    """``[run(*job) for job in jobs]``, with the effect and the error of running them in order.

    The jobs are independent and deterministic. They are dealt round-robin
    to W workers (``_worker_count``). With W = 1 they run here. Otherwise
    this process forks W children, runs no job itself and only collects:
    each child sends its results back pickled through its own pipe. Every
    child is reaped before this returns or raises, and is killed first if
    this process fails or is interrupted. One rule covers every failure, of
    a job, a child, a fork or a pipe: once the children are reaped, every
    job runs again here, in order, so the first of them to raise gives the
    error running them in order would give. The jobs that had already run
    are redone, a cost only a failed run pays.
    """
    import os
    import pickle

    workers = _worker_count(len(jobs))
    if workers == 1:
        return [run(*job) for job in jobs]
    parent, children, reads, ok = os.getpid(), [], [], False
    results = [None] * len(jobs)
    try:
        for w in range(workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(run, jobs[w::workers], parent, write, reads)
            finally:
                os.close(write)
            children.append(pid)
        for w, read in enumerate(reads):
            with open(read, "rb", closefd=False) as pipe:
                results[w::workers] = pickle.load(pipe)
        ok = True
    except Exception:  # a fork or a pipe failed, or a child sent nothing; see the rule above
        pass
    finally:
        for read in reads:
            os.close(read)
        ok = _reap(children, kill=not ok) and ok
    return results if ok else [run(*job) for job in jobs]


def _reap(children: list, kill: bool) -> bool:
    """Wait for every forked child, killing each first if ``kill``: whether
    all exited 0. An interrupt arriving meanwhile is raised once all are
    reaped."""
    import os
    import signal

    if not children:
        return True
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        if kill:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
        return not any([os.waitpid(pid, 0)[1] for pid in children])  # a list: wait for all
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _run_child(run, jobs: list, parent: int, out: int, inherited: list) -> None:
    """A forked worker's life: close the ``inherited`` pipe ends, ``run(*job)`` for each
    job while ``parent`` lives, then pickle the results to the pipe ``out`` and exit,
    with status 0 only if every job ran and its results were sent."""
    import os
    import pickle

    status = 1
    try:
        for fd in inherited:  # so a write to ``out`` fails once the parent is gone
            os.close(fd)
        results = []
        for job in jobs:
            if os.getppid() != parent:
                break
            results.append(run(*job))
        else:
            with open(out, "wb") as pipe:
                pickle.dump(results, pipe)
            status = 0
    finally:
        os._exit(status)


def _cmd_fit(args) -> int:
    if args.method != "cpca":
        _reject_flags(args, ("--alpha", "--alpha-grid"), f"method {args.method}")
    if args.method == "pca":
        _reject_flags(args, ("--bg",), "method pca")
    elif args.bg is None:
        raise UsageError(f"--bg is required for method {args.method}")
    _check_k(args.k)
    # each table is read and reduced to its moments by a job of its own (pca's
    # one job runs here), and only the pair's covariances live on into the fit
    fg, *bg = _run_jobs(_read_moments, [(p,) for p in (args.fg, args.bg) if p is not None])
    if args.method == "pca":
        save_model(args.out, fit_pca(fg, args.k))
        return 0
    pair = build_covariance_pair(*bg, fg)
    del fg, bg
    if args.method == "cpca++":
        bank = fit_cpcapp(pair, args.k, overwrite=True)  # recover_w reads r_b alone
        save_model(args.out, bank, w=recover_w(pair, bank).w)
        return 0
    if args.alpha is not None:
        bank = fit_cpca(pair, args.k, args.alpha)
    else:
        grid = default_alpha_grid() if args.alpha_grid is None else args.alpha_grid
        banks = _run_jobs(fit_cpca, [(pair, args.k, alpha) for alpha in grid])
        stats = glrt_statistic(pair, np.stack([b.f for b in banks]))
        bank = banks[int(np.argmax(stats))]
    save_model(args.out, bank)
    return 0


def _check_k(k: int) -> None:
    """-k below 1 fails here, before any file is read or worker forked."""
    if k < 1:
        raise ArgumentError(f"-k must be at least 1, got {k}")


def _read_moments(path: str) -> Moments:
    return second_moment(csvio.read_csv(path), overwrite=True)  # the table is its own


def _cmd_transform(args) -> int:
    bank, _ = load_model(args.model)
    data = csvio.read_csv(args.infile)
    csvio.write_csv(args.out, transform(bank, data))
    return 0


def _cmd_score(args) -> int:
    bank, _ = load_model(args.model)
    data = csvio.read_csv(args.infile)
    scores = score_patches(bank, data)
    csvio.write_csv(args.out, scores[None, :])
    return 0


def _cmd_denoise(args) -> int:
    if args.k is not None:
        _check_k(args.k)
    bank, w = load_model(args.model)
    if w is None:
        raise CpcappError("model has no basis block; fit with method cpca++")
    k = bank.k if args.k is None else args.k
    if k > bank.k:
        raise ArgumentError(f"-k must be at most the model's K = {bank.k}, got {k}")
    image = netpbm.read_image(args.infile)
    if image.ndim != 2:
        raise CpcappError("denoise expects a grayscale image")
    flat = image.astype(float).ravel()
    if flat.shape != bank.train_mean_fg.shape:  # before the subtraction can broadcast
        raise ShapeError(f"image has {flat.size} pixels but the model expects {bank.features}")
    recon = denoise(FactorModel(w[:, :k], bank.f[:, :k]), flat - bank.train_mean_fg)
    lo, hi = recon.min(), recon.max()
    scaled = (recon - lo) / (hi - lo) if hi > lo else np.zeros_like(recon)
    netpbm.write_image(args.out, np.round(255 * scaled).astype(np.uint8).reshape(image.shape))
    return 0


def _cmd_localize(args) -> int:
    bank, _ = load_model(args.model)
    probe = netpbm.read_image(args.image)
    edge = edge_mask(probe)
    scores, lattice = score_lattice(bank, probe, args.stride)
    prob_map = reconstruct_map(scores, lattice, edge)
    netpbm.write_probability_map(args.out, prob_map.values)
    return 0


def _cmd_train_splice(args) -> int:
    _check_k(args.k)
    train_dir = Path(args.train_dir)
    paths = sorted(train_dir.glob("probe_*.ppm"))
    if not paths:
        raise CpcappError(f"{train_dir}: no probe_*.ppm files found")

    def probes():  # read as splice_pair reaches them, in sorted order
        for path in paths:
            mask = train_dir / path.name.replace("probe_", "surface_").replace(".ppm", ".pgm")
            if not mask.exists():
                raise CpcappError(f"missing surface mask {mask}")
            yield path, netpbm.read_image(path), netpbm.read_image(mask)

    pair = splice_pair(probes(), args.n, args.stride, (args.fg_lo, args.fg_hi), args.bg_edge_min)
    bank = fit_cpcapp(pair, args.k)
    save_model(args.out, bank, w=recover_w(pair, bank).w)
    return 0


def _cmd_eval(args) -> int:
    pred = netpbm.read_probability_map(args.pred)
    truth = netpbm.read_image(args.truth)
    counts = binarize_and_score(ProbabilityMap(values=pred), truth, args.threshold)
    print(f"F1={f1_score(counts)} MCC={mcc_score(counts)}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "transform": _cmd_transform,
    "score": _cmd_score,
    "denoise": _cmd_denoise,
    "localize": _cmd_localize,
    "train-splice": _cmd_train_splice,
    "eval": _cmd_eval,
}


def cli_dispatch(argv) -> int:
    """Run one subcommand; returns the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help paths
        return 0 if exc.code in (0, None) else 1
    except (UsageError, CpcappError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
