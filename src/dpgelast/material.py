"""Isotropic plane-strain material law: stiffness, compliance, derived constants.

Both tensor maps act on arrays of full 2x2 tensors, shape (..., 2, 2),
through their symmetric part (they are zero on skew tensors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MaterialParams:
    """Lame pair (lam, mu) with the derived plane-strain Poisson ratio.

    Only the compressible regime is supported: mu > 0 and lam >= 0.
    """

    lam: float
    mu: float
    nu: float = field(init=False)

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"shear modulus must be positive, got mu={self.mu}")
        if self.lam < 0:
            raise ValueError(f"first Lame parameter must be nonnegative, got lam={self.lam}")
        object.__setattr__(self, "nu", self.lam / (2.0 * (self.lam + self.mu)))


def stiffness_apply_array(grad: np.ndarray, m: MaterialParams) -> np.ndarray:
    """Apply the stiffness map to an array of 2x2 tensors of shape (..., 2, 2).

    Acts on the symmetric part of the input; the skew part is annihilated.
    Used by the assembly kernels where displacement gradients arrive as full
    2x2 tensors.
    """
    sym = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    tr = sym[..., 0, 0] + sym[..., 1, 1]
    out = 2.0 * m.mu * sym
    out[..., 0, 0] += m.lam * tr
    out[..., 1, 1] += m.lam * tr
    return out


def compliance_apply_array(sig: np.ndarray, m: MaterialParams) -> np.ndarray:
    """Apply the compliance map to an array of 2x2 tensors of shape (..., 2, 2):
    the exact in-plane inverse of the stiffness map,
    (1/(2 mu)) (sig - nu tr(sig) I) with nu = lam / (2 (lam + mu)).

    Acts on the symmetric part of the input; the skew part is annihilated.
    """
    sym = 0.5 * (sig + np.swapaxes(sig, -1, -2))
    tr = sym[..., 0, 0] + sym[..., 1, 1]
    out = sym.copy()
    out[..., 0, 0] -= m.nu * tr
    out[..., 1, 1] -= m.nu * tr
    return out / (2.0 * m.mu)
