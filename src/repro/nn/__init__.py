"""Pure-numpy neural-network stack: layers, MLPs, optimisers, K-FAC."""

from repro.nn.distributions import Categorical, log_softmax, softmax
from repro.nn.init import orthogonal
from repro.nn.kfac import KFAC
from repro.nn.layers import Activation, Dense, Identity, Tanh
from repro.nn.mlp import MLP
from repro.nn.optim import Optimizer, RMSprop, clip_grads_by_norm

__all__ = [
    "Categorical",
    "log_softmax",
    "softmax",
    "orthogonal",
    "KFAC",
    "Activation",
    "Dense",
    "Identity",
    "Tanh",
    "MLP",
    "Optimizer",
    "RMSprop",
    "clip_grads_by_norm",
]
