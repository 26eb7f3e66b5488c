"""Fourier-analytic weight stabilization for binary-input neural networks.

Modules: fourier (coefficients over the Boolean cube, the +-1 sign), neuron
(closed-form stabilization and accuracy-loss bounds), network (two-layer
+-1-input MLP), selection (which units to stabilize), attack (greedy bit-flip
evasion and adversarial training), uniformize (Gaussian feature
decorrelation/binarization), cli (the command-line workbench), errors (the
shared exception types). Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"
