"""Cross-check oracles shared by the test modules.

These routes are not used by the program: a Gram-matrix singular value
solve, resolvent-quadrature projector ranks, and the coherent-state
projection of a wave packet on a list of sector blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from catspec.errors import CatspecError, UnresolvedState
from catspec.model import MappingTorusFlow
from catspec.operator import PacketProfile


class ContourTooClose(CatspecError):
    """Integration contour passes too close to the spectrum."""


def singular_values_gram(p: np.ndarray, z_e=0.0):
    """Cross-validation route: sqrt of Hermitian eigenvalues of A*A."""
    p = np.asarray(p, dtype=complex)
    a = p - complex(z_e) * np.eye(p.shape[0])
    vals = sla.eigvalsh(a.conj().T @ a)
    return np.sqrt(np.clip(vals, 0.0, None))


def _projector_quadrature(p, center, radius, n_quad):
    n = p.shape[0]
    eye = np.eye(n)
    acc = np.zeros_like(p)
    scale = np.linalg.norm(p, np.inf) + abs(center) + radius
    for m in range(n_quad):
        th = 2.0 * np.pi * (m + 0.5) / n_quad
        z = center + radius * np.exp(1j * th)
        shifted = z * eye - p
        if np.min(sla.svdvals(shifted)) < 1e-13 * scale:
            raise ContourTooClose(f"contour point {z:.6g} is numerically "
                                  "an eigenvalue")
        acc += radius * np.exp(1j * th) * np.linalg.inv(shifted)
    return acc / n_quad


def spectral_projector_rank(p: np.ndarray, center, radius, n_quad=64):
    """Algebraic eigenvalue count inside a circle via resolvent quadrature.

    Trapezoid rule on the circle; rank read off by thresholding singular
    values of the projector approximation at 1/2.  The quadrature error is
    estimated by halving the node count; the call fails with
    ContourTooClose when ten times that estimate could move a singular
    value across the 1/2 threshold, i.e. when the contour passes too close
    to the spectrum for the requested resolution.
    """
    p = np.asarray(p, dtype=complex)
    proj = _projector_quadrature(p, center, radius, n_quad)
    rough = _projector_quadrature(p, center, radius, max(4, n_quad // 2))
    err = np.linalg.norm(proj - rough, 2)
    svals = sla.svdvals(proj)
    if err > 0.25 or np.any(np.abs(svals - 0.5) < 10.0 * max(err, 1e-14)):
        raise ContourTooClose(
            f"quadrature error estimate {err:.2e} cannot separate the "
            "projector spectrum at threshold 1/2")
    return int(np.sum(svals >= 0.5))


@dataclass
class CoherentState:
    alpha_x: tuple
    alpha_xi: tuple
    h: float
    coeffs: dict                  # sector key -> coefficient vector
    norm2: float                  # captured squared norm
    ref_norm2: float              # quadrature norm of the continuum packet


def coherent_state(flow: MappingTorusFlow, blocks, alpha_x, alpha_xi, h,
                   mass_tol=0.01, tau_grid=4096):
    """Project a Gaussian wave packet on the truncated mode basis.

    alpha_x = (x1, x2, tau) is the center, alpha_xi the covector.  Raises
    UnresolvedState when more than mass_tol of the packet's squared norm is
    missing from the truncation window.
    """
    profile = PacketProfile(flow, alpha_x, alpha_xi, h, tau_grid)
    coeffs = {}
    captured = 0.0
    for block in blocks:
        vec = profile.project(flow, block)
        coeffs[block.key] = vec
        captured += float(np.vdot(vec, vec).real)
    if captured < (1.0 - mass_tol) * profile.ref_norm2:
        raise UnresolvedState(
            f"truncation captures {captured / profile.ref_norm2:.4f} of the packet mass")
    return CoherentState(tuple(profile.ax), tuple(profile.xi), h, coeffs,
                         captured, profile.ref_norm2)
