"""Closed-loop test-time adaptation on synthetic desk-scale tasks.

A frozen main network is adapted at test time either by explicit gradient
descent on a proxy loss (test-time optimization) or by a small learned
controller that emits feature-wise modulation parameters in one forward
pass. The package holds the numerics (a minimal reverse-mode autodiff
engine), network builders, procedural task generators, synthetic
distribution shifts, adaptation-signal generators and a file format for
models, controllers and datasets. The adaptation episodes themselves are
not part of it yet.
"""

__version__ = "0.1.0"

from . import autodiff

__all__ = ["autodiff", "__version__"]
