"""Privacy-preserving feature filters.

Learn a filter g(x; u) that keeps a target task solvable while pushing
the best adversary on a private task toward chance, release the filtered
features with calibrated additive noise when a formal privacy level is
required, and compare against standard baselines under a repeatable
evaluation protocol.
"""

from .baselines import (ScatterSet, build_scatters, fit_pca, fit_ppls,
                        fit_rand, privacy_lds)
from .data import (Dataset, gen_synthetic, load_csv, save_csv,
                   split_per_subject)
from .dp_mech import (BoundKind, DiameterReport, bound, bound_scale_from_norms,
                      compute_diameters, log_density, sample_noise)
from .errors import DataError, NumericError, ShapeError
from .filters import (FilterKind, FilterState, apply_filter,
                      filter_param_grad, identity_filter, init_filter,
                      linear_filter, load_filter, pretrain_autoencoder,
                      save_filter)
from .harness import (EvalReport, ExperimentConfig, derive_rng,
                      evaluate_filter, export_results, fit_filter,
                      load_results, run_experiment, train_filter)
from .heads import (ReconstructionHead, SoftmaxHead, accuracy,
                    fit_reconstruction, fit_softmax, one_hot, predict_labels,
                    reconstruction_risk, softmax_risk)
from .minimax_opt import (TaskSpec, TradeoffConfig, TrainReport,
                          classification_tradeoff, descent_direction,
                          joint_objective, least_squares_tradeoff,
                          train_minimax)

__version__ = "0.1.0"

__all__ = [
    "BoundKind", "DataError", "Dataset", "DiameterReport",
    "EvalReport", "ExperimentConfig", "FilterKind", "FilterState",
    "NumericError", "ReconstructionHead", "ScatterSet",
    "ShapeError", "SoftmaxHead", "TaskSpec", "TradeoffConfig", "TrainReport",
    "accuracy", "apply_filter", "bound", "bound_scale_from_norms",
    "build_scatters", "classification_tradeoff", "compute_diameters",
    "derive_rng", "descent_direction", "evaluate_filter",
    "export_results", "filter_param_grad", "fit_filter", "fit_pca",
    "fit_ppls", "fit_rand", "fit_reconstruction", "fit_softmax",
    "gen_synthetic", "identity_filter", "init_filter", "joint_objective",
    "least_squares_tradeoff", "linear_filter", "load_csv", "load_filter",
    "load_results", "log_density", "one_hot", "predict_labels",
    "pretrain_autoencoder", "privacy_lds", "reconstruction_risk",
    "run_experiment", "sample_noise", "save_csv", "save_filter",
    "softmax_risk", "split_per_subject", "train_filter", "train_minimax",
]
