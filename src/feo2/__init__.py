"""Federated learning with opt-out client-level differential privacy.

A deterministic simulator plus the closed-form estimation theory behind it:
two-group aggregation with a tunable private-group weight, adaptive clipping,
an RDP accountant for the subsampled Gaussian mechanism, and proximal-tether
personalization with known optimal tether strengths.

The API lives in the submodules (``feo2.config.parse_config``,
``feo2.simulate.run_experiment``, ...); the package root re-exports nothing.
"""

__version__ = "0.1.0"
