"""Span tracer that instruments cpcapp from the benchmark's own files.

Every public function defined in a ``cpcapp`` module is replaced, at every
binding site in every ``cpcapp.*`` namespace (``from .x import f`` copies the
name, so one function can have several), by a wrapper that records a span:
name, start, end, parent span and run id. Public methods and dataclass
validation (``__post_init__``) of public classes are wrapped on their class.
``numpy.linalg`` factorizations get counting wrappers without spans, so
decompositions are counted wherever cpcapp calls them, including outside
``sym_eig``. Spans stay in memory until the run writes them out. Nothing
under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# numpy.linalg entry points whose calls are counted as decompositions/solves.
COUNTED_LINALG = ("eigh", "eigvalsh", "cholesky", "solve")

# The CLI layer is represented by the per-command spans the benchmark opens
# around each ``cli_dispatch`` call, so these are not wrapped a second time.
UNTRACED = ("cli.cli_dispatch", "cli.main")
# Private functions that are a layer step of their own: every command builds
# the argument parser, which costs milliseconds.
EXTRA_TRACED = ("cli._build_parser",)
# Library calls that are steps of their own: span name -> (owner, attribute).
# ``train-splice`` gathers every labeled patch column with np.concatenate,
# the O(M*N) copy that a streaming accumulator would remove.
FOREIGN_SPANS = {
    "cli.parse_args": (argparse.ArgumentParser, "parse_args"),
    "numpy.concatenate": (np, "concatenate"),
}


def _path_bytes(counters, name, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters[f"{name}.bytes"] += os.path.getsize(path)


def _second_moment_flops(counters, name, args, kwargs, result):
    z = args[0] if args else kwargs["z"]
    m, n = z.values.shape
    counters[f"{name}.gflop"] += 2.0 * m * m * n / 1e9


def _extracted_patches(counters, name, args, kwargs, result):
    counters["splicing.patches"] += result.patches.samples


def _rng_words(counters, name, args, kwargs, result):
    counters["rng.words"] += result.size


def _labeled_patches(counters, name, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    labeled = result[0].size + result[1].size
    counters["splicing.training_patches"] += grid.patches.samples
    counters["splicing.labeled_patches"] += labeled
    counters["splicing.unlabeled_images"] += labeled == 0


# Per-span counters, taken from the arguments and result of a finished call.
OBSERVERS = {
    "csvio.read_csv": _path_bytes,
    "csvio.write_csv": _path_bytes,
    "netpbm.read_image": _path_bytes,
    "netpbm.write_image": _path_bytes,
    "stats.second_moment": _second_moment_flops,
    "splicing.extract_patches": _extracted_patches,
    "splicing.label_patches": _labeled_patches,
    "rng.SplitMix64.next_u64": _rng_words,
}


class InstrumentationError(RuntimeError):
    """The tracer could not wrap, or fully unwrap, the program."""


class Tracer:
    """Records spans and counters while installed into a package."""

    def __init__(self, package):
        self.namespaces = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._owners: list = []
        self.binding_sites = 0

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counters, name, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(span name, owner, function) for every traced function.

        Module functions are public ones (plus ``EXTRA_TRACED``); methods are
        the public ones and ``__post_init__`` (dataclass validation) of public
        classes. A method has one binding site, its class (the owner); a
        module function is rebound wherever it appears (owner ``None``).
        """
        for module in self.namespaces[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    if (not attr.startswith("_") or name in EXTRA_TRACED) and name not in UNTRACED:
                        yield name, None, obj
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for method, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (
                                method == "__post_init__" or not method.startswith("_")):
                            yield f"{name}.{method}", obj, fn

    def _originals_left(self) -> list[str]:
        return [
            f"{getattr(ns, '__name__', ns)}.{attr}"
            for ns in self._owners
            for attr, obj in vars(ns).items()
            if id(obj) in self._wrapped and self._wrapped[id(obj)][0] is obj
        ]

    @contextmanager
    def installed(self):
        """Wrap every binding site; restore the originals on exit.

        Raises :class:`InstrumentationError` when any ``cpcapp.*`` namespace
        or traced class still holds an unwrapped original after installation,
        or a wrapper after removal.
        """
        targets = list(self._targets())
        self._wrapped = {id(fn): (fn, self._wrap(name, fn)) for name, _, fn in targets}
        self._owners = self.namespaces + list(dict.fromkeys(
            owner for _, owner, _ in targets if owner is not None))
        patches = []  # (owner, attribute, original)
        for ns in self._owners:
            for attr, obj in list(vars(ns).items()):
                entry = self._wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((ns, attr, obj))
                    setattr(ns, attr, entry[1])
        self.binding_sites = len(patches)
        for name, (owner, attr) in FOREIGN_SPANS.items():
            original = vars(owner)[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        for fname in COUNTED_LINALG:
            original = getattr(np.linalg, fname)
            patches.append((np.linalg, fname, original))
            setattr(np.linalg, fname, self._count(f"linalg.{fname}", original))
        try:
            left = self._originals_left()
            if left:
                raise InstrumentationError(f"unwrapped originals remain: {', '.join(left)}")
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
        wrappers = {id(entry[1]) for entry in self._wrapped.values()}
        stale = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns in self._owners
                 for attr, obj in vars(ns).items() if id(obj) in wrappers]
        if stale:
            raise InstrumentationError(f"wrappers left installed: {', '.join(stale)}")

    # -- reduction ---------------------------------------------------------

    def write(self, path, run_id: str) -> None:
        """One JSON span per line; ``run`` identifies the pipeline pass."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

    def summary(self) -> dict:
        """Totals per span name: self time, inclusive time and calls.

        Also returns the CLI's own time and, per command, the share of its
        wall time that child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        covered: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_s[name] += duration - child_time[i]
            total_s[name] += duration
            calls[name] += 1
            if parent < 0:
                covered[name] += child_time[i]
        roots = sorted(covered)
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "cli_self_s": sum(self_s[name] for name in roots),
            "coverage": {name: covered[name] / total_s[name]
                         for name in roots if total_s[name] > 0},
        }
