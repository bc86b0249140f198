"""Generative ensembles over multiple synthetic datasets.

Train a predictor separately on each of m synthetic datasets, average the
predictions, and reason about the error through its variance decomposition:
the ensemble removes a (1 - 1/m) fraction of the reducible variance, which
yields a practical rule of thumb for choosing m. Includes differentially
private shared-summary generation, correlated-generator diagnostics, and the
Bregman-divergence generalization of the squared-error analysis.
"""

__version__ = "0.1.0"

from .data import (Column, Dataset, FeatureMatrix, Schema, encode, load_csv,
                   save_csv, train_test_split)
from .generators import (GeneratorParams, GeneratorSpec, PrivateSummary,
                         epsilon_from_rho, fit, fit_dp_summary, generate_ensemble,
                         rho_from_epsilon, sample, sample_params_from_summary)
from .metrics import MetricSpec
from .predictors import PredictorSpec, TrainedModel, predict_batch, train
from .bregman import (BregmanSpec, CentralStats, central_prediction,
                      check_total_variance, divergence, dual, dual_average,
                      dual_inverse)
from .decomposition import (DecompositionReport, MonteCarloConfig, RuleOfThumbFit,
                            achieved_benefit, bregman_oracle_decompose,
                            estimate_mv_sdv_nested, fit_rule_regression,
                            fit_rule_two_point, mse_curve, oracle_decompose,
                            predict_mse)
from .processes import get_process

__all__ = ["__version__", "Column", "Dataset", "FeatureMatrix", "Schema", "encode", "load_csv",
           "save_csv", "train_test_split", "GeneratorParams", "GeneratorSpec", "PrivateSummary",
           "epsilon_from_rho", "fit", "fit_dp_summary", "generate_ensemble", "rho_from_epsilon",
           "sample", "sample_params_from_summary", "MetricSpec", "PredictorSpec", "TrainedModel",
           "predict_batch", "train", "BregmanSpec", "CentralStats", "central_prediction",
           "check_total_variance", "divergence", "dual", "dual_average", "dual_inverse",
           "DecompositionReport", "MonteCarloConfig", "RuleOfThumbFit", "achieved_benefit",
           "bregman_oracle_decompose", "estimate_mv_sdv_nested", "fit_rule_regression",
           "fit_rule_two_point", "mse_curve", "oracle_decompose", "predict_mse", "get_process"]
