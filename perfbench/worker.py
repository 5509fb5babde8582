"""One benchmark process: set up, then run a workload's CLI pipeline once.

``run.py`` starts this file in fresh interpreters, one after another, so that
set-up time, peak memory and each pipeline pass belong to one process. The
worker prints ``READY`` once set-up is done (the parent times set-up up to
that line) and ``RESULT <json>`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Check

# Side of the SPD matrix factorized during set-up, so that the one-off costs
# of the first BLAS/LAPACK calls fall outside the timed pass.
WARMUP_SIDE = 256


class Runner:
    """Runs CLI commands, timing each and counting failures."""

    def __init__(self, dispatch):
        self.dispatch = dispatch
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, argv, tracer=None) -> tuple[float, str]:
        argv = list(argv)
        buf = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    status = self.dispatch(argv)
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        status = self.dispatch(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            status = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if status != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: exit {status}")
        return elapsed, buf.getvalue()

    def quiet(self, argv) -> int:
        """Run a command untimed and uncounted, discarding its output."""
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return self.dispatch(argv)

    def record_check(self, check) -> None:
        self.attempted += 1
        if not check.ok:
            self.failed += 1
            self.errors.append(f"check {check.name} failed: {check.detail}")


def _warm_blas() -> None:
    a = np.eye(WARMUP_SIDE) * WARMUP_SIDE + 1.0
    np.linalg.eigh(a)
    np.linalg.eigvalsh(a)
    np.linalg.solve(np.linalg.cholesky(a), a[:, :3])


def _digests(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def environment() -> dict:
    """BLAS build, thread pinning, versions and CPU of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _iterate(workload, work, seed, runner, tracer=None) -> tuple[dict, list]:
    """The pipeline's commands back to back: stage times, wall time, captured stdout."""
    steps = workload.steps(work, seed)
    stages: dict[str, float] = {}
    captured = []
    start = time.perf_counter()
    for step in steps:
        elapsed, out = runner.run(step.argv, tracer)
        stages[step.stage] = stages.get(step.stage, 0.0) + elapsed
        captured.append((step, out))
    stages["wall"] = time.perf_counter() - start
    return stages, captured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--trace", action="store_true", help="trace the pipeline")
    parser.add_argument("--input-seed", type=int, default=None,
                        help="generator seed resolved by an earlier process")
    parser.add_argument("--check", action="store_true", help="check the last outputs")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path("src").resolve()))
    import cpcapp
    from cpcapp import cli

    if Path(cpcapp.__file__).resolve().parent != Path("src/cpcapp").resolve():
        print(f"error: imported cpcapp from {cpcapp.__file__}, not ./src", file=sys.stderr)
        return 2
    _warm_blas()
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    runner = Runner(cli.cli_dispatch)
    print("READY", flush=True)

    if args.input_seed is None:
        seed, rejected_seeds = workload.input_seed(work, args.seed, runner.quiet)
    else:
        seed, rejected_seeds = args.input_seed, 0
    out_dir = workload.outputs(work)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(cpcapp)
        with tracer.installed():
            stages, captured = _iterate(workload, work, seed, runner, tracer)
    else:
        tracer = None
        stages, captured = _iterate(workload, work, seed, runner)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = _digests(out_dir)

    checks, quality = [], {}
    if args.check:
        try:
            checks, quality = workload.check(work, seed, captured)
        except Exception:  # unreadable or missing output
            checks = [Check("outputs-readable", False, traceback.format_exc())]
    for check in checks:
        runner.record_check(check)

    result = {
        "stages": stages,
        "traced": args.trace,
        "digests": digests,
        "input_seed": seed,
        "rejected_seeds": rejected_seeds,
        "peak_rss_mib": peak_rss_mib,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "checks": [vars(c) for c in checks],
        "quality": quality,
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(work / "spans.jsonl", run_id=work.name)
        result["trace"] = tracer.summary()
        result["trace"]["binding_sites"] = tracer.binding_sites
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
