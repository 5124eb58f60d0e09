"""kisim: a deterministic GPU-aware inference-cluster simulator with a
PPO-based autoscaler and threshold/fixed baselines."""

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
