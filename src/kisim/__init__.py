"""kisim: a deterministic GPU-aware inference-cluster simulator with a
PPO-based autoscaler and threshold/fixed baselines."""

import os

# One BLAS thread, unless the caller chose a count. The learner's largest
# product is 256 x 250 floats, too small for a second thread to pay, and
# OpenBLAS's default of one thread per CPU makes every product wait for a
# worker on another CPU: on a 2-vCPU host with one other busy process, a
# dense-control train ran 2.7x slower at 2 threads and unchanged at 1.
# OpenBLAS reads this when numpy first loads it, so it must precede that import.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import ExperimentConfig
from .env import ActionTriple, ScalingEnv
from .simcore import ClusterModel, Engine, Pool, ServiceModel

__version__ = "0.1.0"

__all__ = [
    "ActionTriple",
    "ClusterModel",
    "Engine",
    "ExperimentConfig",
    "Pool",
    "ScalingEnv",
    "ServiceModel",
    "__version__",
]
