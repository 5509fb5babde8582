import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cpcapp


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_spd(rng, m, jitter=1.0):
    a = rng.standard_normal((m, m))
    return a @ a.T + jitter * np.eye(m)


def random_psd(rng, m, rank=None):
    rank = rank or m
    a = rng.standard_normal((m, rank))
    return a @ a.T


def principal_angles(f1, f2):
    """Sines of the principal angles between two column spans (equal-dimension bases).

    Taken from the projection residual ``Q2 - Q1 Q1^T Q2``, whose singular
    values are the sines; ``arccos`` of the singular values of ``Q1^T Q2``
    cannot resolve angles below about 1e-8 rad. The largest is the residual's
    2-norm, and equals its angle to first order.
    """
    q1, _ = np.linalg.qr(f1)
    q2, _ = np.linalg.qr(f2)
    return np.linalg.svd(q2 - q1 @ (q1.T @ q2), compute_uv=False)


def traced_peak(fn) -> int:
    """Traced peak of ``fn()`` above the memory traced when it starts, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def generator_tables(kind, seed, n_fg, n_bg):
    """A sampled kind's tables by name, in ``datagen.TABLE_NAMES`` order, from
    the public generators' arrays: the sequential-draw reference for
    ``datagen.sample_table`` and the files ``generate`` writes."""
    from cpcapp import gen_four_class, gen_haystack, gen_textured_digits, sample_haystack

    if kind == "four-class":
        fg, bg = gen_four_class(seed, n_fg, n_bg)
        return {"fg": fg.data.values, "bg": bg.values, "labels": fg.labels[None, :]}
    if kind == "haystack":
        fg, bg = sample_haystack(seed, n_fg, n_bg)
        r_b, r_f, c_dir, a_dir = gen_haystack()
        return {"rb": r_b, "rf": r_f, "directions": np.stack([c_dir, a_dir]),
                "fg": fg.values, "bg": bg.values}
    fg, bg, clean = gen_textured_digits(seed, n_fg, n_bg)
    return {"fg": fg.data.values, "bg": bg.values, "labels": fg.labels[None, :],
            "clean": clean.values}


def uses(source: str, names) -> list[tuple[str, str, int]]:
    """``(enclosing scope, name, line)`` of each reference to one of ``names`` in
    ``source``: a bare name, an attribute or an imported name. The scope is
    ``""`` at module level; a definition is not a reference."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Name) and node.id in names:
            found.append((scope, node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((scope, node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found.extend((scope, alias.name, node.lineno) for alias in node.names
                         if alias.name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def package_uses(names) -> dict[str, list[tuple[str, str]]]:
    """``(scope, name)`` of each of ``uses`` in each of the package's modules that has any."""
    package = Path(cpcapp.__file__).parent
    return {path.name: [use[:2] for use in found] for path in sorted(package.glob("*.py"))
            if (found := uses(path.read_text(), names))}
