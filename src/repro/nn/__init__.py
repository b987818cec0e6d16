"""Pure-numpy neural-network stack: layers, MLPs, optimisers, K-FAC."""

from repro.nn.distributions import Categorical, log_softmax, softmax
from repro.nn.init import orthogonal, xavier_uniform, zeros
from repro.nn.kfac import KFAC
from repro.nn.layers import Activation, Dense, Identity, ReLU, Tanh
from repro.nn.mlp import MLP
from repro.nn.optim import Optimizer, RMSprop, clip_grads_by_norm

__all__ = [
    "Categorical",
    "log_softmax",
    "softmax",
    "orthogonal",
    "xavier_uniform",
    "zeros",
    "KFAC",
    "Activation",
    "Dense",
    "Identity",
    "ReLU",
    "Tanh",
    "MLP",
    "Optimizer",
    "RMSprop",
    "clip_grads_by_norm",
]
