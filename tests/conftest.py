import tracemalloc

import numpy as np
import pytest


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
