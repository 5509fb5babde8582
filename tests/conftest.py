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
