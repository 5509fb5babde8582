"""Discriminative dimensionality reduction without a contrast-parameter sweep.

The core fit solves one background-whitened eigenproblem instead of scanning
a contrast grid; around it sit PCA and contrastive-PCA baselines, an oblique
factorization for denoising, synthetic dataset generators with closed-form
oracles, and a patch-based boundary-localization pipeline with per-pixel
F1/MCC scoring.
"""

from .csvio import read_csv, write_csv
from .datagen import (
    LabeledDataset,
    analytic_four_class_covariances,
    analytic_four_class_q,
    gen_four_class,
    gen_haystack,
    gen_spliced_image,
    gen_textured_digits,
    oracle_four_class_filters,
    sample_haystack,
    sample_tables,
)
from .errors import (
    ArgumentError,
    ConvergenceError,
    CpcappError,
    DefinitenessError,
    ParseError,
    RankError,
    ShapeError,
)
from .factorization import FactorModel, denoise, glrt_statistic, recover_w
from .linalg import (
    EigenResult,
    auto_loading,
    diagonal_load,
    q_eig,
    sym_eig,
)
from .model_io import load_model, save_model
from .netpbm import read_image, read_probability_map, write_image, write_probability_map
from .reducers import (
    FilterBank,
    default_alpha_grid,
    fit_cpca,
    fit_cpcapp,
    fit_pca,
    sweep_cpca,
    transform,
)
from .rng import SplitMix64
from .splicing import (
    ConfusionCounts,
    Lattice,
    PatchGrid,
    ProbabilityMap,
    binarize_and_score,
    edge_mask,
    extract_patches,
    f1_score,
    label_patches,
    mcc_score,
    random_scorer_expected_f1,
    reconstruct_map,
    score_lattice,
    score_patches,
    splice_pair,
)
from .stats import CovariancePair, DataMatrix, Moments, build_covariance_pair, second_moment

__version__ = "0.1.0"
