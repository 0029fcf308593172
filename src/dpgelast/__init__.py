"""Minimum-residual (DPG) finite elements for 2D plane-strain linear elasticity.

The engine solves the first-order elasticity system under several broken
variational formulations with automatically computed near-optimal test
functions, supports residual-driven adaptive mesh refinement, and ships
closed-form benchmark solutions (a smooth manufactured field on the unit
square and a singular corner field on an L-shaped domain).
"""

from .material import MaterialParams

__version__ = "0.1.0"

__all__ = [
    "MaterialParams",
    "__version__",
]
