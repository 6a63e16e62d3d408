"""tabuq: uncertainty estimation and evaluation for binary tabular classification.

Four uncertainty methods (deep ensemble, MC dropout, bootstrapped logistic
regression, VAE novelty detection) built from scratch on a small numeric
core, plus the evaluation harness: confidence-performance curves, ECE and
Platt scaling, out-of-domain group detection, and corrupted-feature
detection. Everything is seed-deterministic.
"""

from .data import (Dataset, StandardScaler, ToyConfig, apply_scaler,
                   bootstrap_sample, corrupt_feature, exclude_group, fit_scaler,
                   generate_synthetic, generate_toy, grid_2d, load_csv, split)
from .ensemble import ensemble_predict, train_deep_ensemble
from .errors import (ConfigError, DataError, ParameterError, ShapeError,
                     TrainingError, UndefinedMetricError)
from .evaluation import (DEFAULT_FRACTIONS, DEFAULT_SEEDS, METHODS, CurvePoint,
                         FittedMethod, MethodSettings, SeedSweep,
                         confidence_performance, corruption_experiment,
                         curve_experiment, ood_experiment, seed_sweep,
                         toy_surfaces, train_method, train_with_classifier)
from .logistic import (LogisticModel, predict_logistic, train_bootstrapped_lr,
                       train_logistic)
from .metrics import (PlattParams, auc_roc, binary_entropy, ece, platt_apply,
                      platt_fit)
from .mlp import (MlpModel, TrainConfig, mc_dropout_predict, mlp_loss,
                  mlp_loss_and_grads, positive_weight, predict_mlp, train_mlp,
                  weighted_bce_loss)
from .numeric import (AdamState, adam_step, anchored_mean, dropout_mask, flatten,
                      minibatch_adam, minimize_gd, sigmoid, unflatten)
from .rng import SeededRng
from .vae import VaeConfig, VaeModel, train_vae, vae_novelty_score

__version__ = "0.1.0"
