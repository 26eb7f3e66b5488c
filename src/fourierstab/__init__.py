"""Fourier-analytic weight stabilization for binary-input neural networks.

Modules: fourier (coefficients over the Boolean cube, the +-1 sign), neuron
(closed-form stabilization and accuracy-loss bounds), network (two-layer
+-1-input MLP), selection (which units to stabilize), attack (greedy bit-flip
evasion and adversarial training), uniformize (Gaussian feature
decorrelation/binarization), cli (the command-line workbench).
"""

from .fourier import ChowEstimate, ExactChow, MonteCarloChow, chow_exact, chow_mc
from .neuron import (
    AccuracyBoundReport,
    LinearThresholdNeuron,
    PNorm,
    StabilizationResult,
    stabilize,
)
from .network import Activation, BinaryMlp, LabeledDataset, TrainConfig, train_sgd
from .attack import AdvTrainConfig, AttackBudget, AttackOutcome, adversarial_train, jsma
from .selection import SelectionConfig, SelectionTrace, gmb, gmb_fast, gmbc

__all__ = [
    "AccuracyBoundReport",
    "Activation",
    "AdvTrainConfig",
    "AttackBudget",
    "AttackOutcome",
    "BinaryMlp",
    "ChowEstimate",
    "ExactChow",
    "LabeledDataset",
    "LinearThresholdNeuron",
    "MonteCarloChow",
    "PNorm",
    "SelectionConfig",
    "SelectionTrace",
    "StabilizationResult",
    "TrainConfig",
    "adversarial_train",
    "chow_exact",
    "chow_mc",
    "gmb",
    "gmb_fast",
    "gmbc",
    "jsma",
    "stabilize",
    "train_sgd",
]

__version__ = "0.1.0"
