"""From-scratch NumPy deep-learning stack.

The paper trains a 2-hidden-layer MLP (135 ReLU units each) with RMSprop
at lr 2.5e-4 and minibatch 32 (Table 1, DL block).  No deep-learning
framework is available offline, so this subpackage implements the needed
subset: dense layers with backprop, MSE/Huber losses, SGD/RMSprop/Adam,
He/Glorot initialization, a dueling value-advantage head for the
Section 5 extension, and npz checkpointing.
"""

from repro.nn.init import he_init, glorot_init
from repro.nn.layers import Dense, ReLU, Tanh, Sigmoid, Identity, Layer
from repro.nn.network import MLP, build_mlp
from repro.nn.losses import MSELoss, HuberLoss, make_loss
from repro.nn.optimizers import SGD, RMSprop, Adam, make_optimizer
from repro.nn.dueling import DuelingHead, DuelingMLP
from repro.nn.conv import Conv2D, MaxPool2D, Flatten, Reshape, build_cnn
from repro.nn.noisy import (
    NoisyDense,
    build_noisy_mlp,
    resample_network_noise,
    zero_network_noise,
)
from repro.nn.checkpoints import save_network, load_network

__all__ = [
    "he_init",
    "glorot_init",
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "MLP",
    "build_mlp",
    "MSELoss",
    "HuberLoss",
    "make_loss",
    "SGD",
    "RMSprop",
    "Adam",
    "make_optimizer",
    "DuelingHead",
    "DuelingMLP",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "Reshape",
    "build_cnn",
    "NoisyDense",
    "build_noisy_mlp",
    "resample_network_noise",
    "zero_network_noise",
    "save_network",
    "load_network",
]
