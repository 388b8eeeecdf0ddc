"""Cross-check oracles shared by the test modules.

These routes are not used by the program: a Gram-matrix singular value
solve, the Weyl oracle's spectra from mpmath's dense SVD and QR
eigensolver, the neutral-sector part of a spectrum, resolvent-quadrature
projector ranks, the coherent-state projection of a wave packet on a list
of sector blocks, the weighted expectation on an orbit sector through its
dense matrix, the coherent symbol study sector by sector, the orbit
sectors found point by point, the weights of a run with every mode
evaluated, the lattice-shell control counted on the full (v1, v2)
meshgrid, the model's flow map, vector field, splittings and invariant
one-form, the dual coframes and the bounded-orbit covector, the unstable
direction recovered by pushing a seed forward, the inverse of
``cotangent.adapted_components``, the escape function's order function,
and its averaged profiles rebuilt from cosphere bumps: an adaptive
quadrature of the average, its exact flow derivative from the endpoint
identity, and the raw profiles of a whole batch reduced by one gemv over
all its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from catspec.cotangent import CotangentPoint
from catspec.errors import CatspecError, NonConvergence, UnresolvedState
from catspec.escape import EscapeFunction, composite_gauss_legendre, smoothstep
from catspec.harness import WEYL_DPS, ResonanceSet, weyl_prefix_ok
from catspec.model import BasePoint, MappingTorusFlow
from catspec.operator import (OrbitSector, PacketProfile, SectorBlock, _mode_adapted,
                              apply_weight)


class ContourTooClose(CatspecError):
    """Integration contour passes too close to the spectrum."""


class DegenerateSeed(CatspecError):
    """Seed direction lies (numerically) in the excluded subspace."""


class QuadratureFailure(CatspecError):
    """Adaptive quadrature did not converge to the requested tolerance."""


def singular_values_gram(p: np.ndarray, z_e=0.0):
    """Cross-validation route: sqrt of Hermitian eigenvalues of A*A."""
    p = np.asarray(p, dtype=complex)
    a = p - complex(z_e) * np.eye(p.shape[0])
    vals = sla.eigvalsh(a.conj().T @ a)
    return np.sqrt(np.clip(vals, 0.0, None))


def weyl_spectra_dense(p: np.ndarray, z_e):
    """The Weyl oracle's spectra the dense way: ascending ``mp.svd_c``
    singular values of ``p - z_e`` and ``mp.eig`` distances to ``z_e``, at
    ``harness.WEYL_DPS`` digits."""
    import mpmath as mp

    with mp.workdps(WEYL_DPS):
        m = mp.matrix([[mp.mpc(v) for v in row] for row in np.asarray(p, complex)])
        z = mp.mpc(z_e)
        s = mp.svd_c(m - z * mp.eye(m.rows), compute_uv=False)
        svals = sorted(mp.mpf(s[i]) for i in range(m.rows))
        evals = mp.eig(m, left=False, right=False)
        return svals, sorted(abs(ev - z) for ev in evals)


def weyl_oracle_dense(p: np.ndarray, z_e):
    """``harness.weyl_oracle`` on the dense high-precision spectra."""
    return weyl_prefix_ok(*weyl_spectra_dense(p, z_e))


def neutral_resonances(res: ResonanceSet) -> ResonanceSet:
    """The neutral-sector entries of a spectrum from
    ``harness.extract_resonances``, with its meta."""
    return ResonanceSet([e for e in res.entries if e.sector_key == "neutral"], res.meta)


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


def coherent_state(flow: MappingTorusFlow, blocks, alpha_x, alpha_xi, h, mass_tol=0.01):
    """Project a Gaussian wave packet on the truncated mode basis.

    alpha_x = (x1, x2, tau) is the center, alpha_xi the covector.  Raises
    UnresolvedState when more than mass_tol of the packet's squared norm is
    missing from the truncation window.
    """
    profile = PacketProfile(flow, alpha_x, alpha_xi, h)
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


def dense_orbit_expectation(block: SectorBlock, escape: EscapeFunction, h, vec):
    """<v, h W H W^{-1} v> on one sector block through its dense matrix.

    The block from `build_generator` is conjugated entrywise by the
    diagonal weight and multiplied; `operator.orbit_expectation` sums the
    same form cell by cell without the matrix.
    """
    return np.vdot(vec, (h * apply_weight(block, escape, h)) @ vec)


def coherent_study_per_sector(flow: MappingTorusFlow, params, points, h_list, j_max=12):
    """``harness.coherent_symbol_study`` sector by sector: (errors, powers).

    One escape_value call per sector (shared by the sectors through k0 and
    -k0), one torus-overlap call per packet and sector, and each packet
    builds its own rectified-time phase table.  The sector terms are added
    in sector order, as the batched study adds them.
    """
    from catspec import harness as hs, operator as op
    from catspec.cotangent import h0

    escape = EscapeFunction(flow, params)
    preds = []
    for ax, xi in points:
        q = CotangentPoint(BasePoint((ax[0], ax[1]), ax[2]), (xi[0], xi[1]), xi[2])
        preds.append(h0(flow, q) + 1j * escape.escape_derivative(q))

    errors = [dict() for _ in points]
    for h in h_list:
        k_max = hs.coherent_k_max(points, h)
        tr = op.Truncation(k_max=k_max, p_max=hs.COHERENT_P_MAX, j_max=j_max)
        profiles = [PacketProfile(flow, ax, xi, h) for ax, xi in points]
        tau_ints = [prof.orbit_tau_integrals(prof.phase_table(j_max)) for prof in profiles]
        neutral = op.build_generator(flow, op.NeutralSector(), tr)
        mat = h * apply_weight(neutral, escape, h)
        vecs = [prof.project(flow, neutral) for prof in profiles]
        acc = np.array([np.vdot(v, mat @ v) for v in vecs])
        norms = np.array([float(np.vdot(v, v).real) for v in vecs])
        weights = {}
        for sector in op.enumerate_orbits(flow.cat, k_max, hs.COHERENT_P_MAX):
            key = op.mirror_key(sector)
            if key not in weights:
                weights[key] = op.mode_log_weight(sector, op.sector_basis(sector, tr),
                                                  escape, h)
            coeffs = np.stack([prof.torus_overlaps(sector.freqs)[:, None] * t[None, :]
                               for prof, t in zip(profiles, tau_ints)])
            acc += h * op.orbit_expectation(flow, tr,
                                            weights[key].reshape(sector.n_cells, -1), coeffs)
            norms += np.sum(np.abs(coeffs) ** 2, axis=(1, 2))
        for i, prof in enumerate(profiles):
            if norms[i] < (1.0 - hs.COHERENT_MASS_TOL) * prof.ref_norm2:
                raise UnresolvedState(
                    f"point {i}: captured mass {norms[i] / prof.ref_norm2:.4f} at h={h}")
            pred = preds[i].real + 1j * h * preds[i].imag
            errors[i][float(h)] = float(abs(acc[i] / norms[i] - pred))

    logh = np.log(np.asarray(h_list, dtype=float))
    powers = [hs.fit_slope(logh, np.log([err[float(h)] for h in h_list])) for err in errors]
    return errors, powers


def orbit_representative(cat, k):
    """Minimal-norm element of the A^T-orbit through k (lexicographic ties)."""
    at = cat.matrix.T
    at_inv = cat.power(-1).T

    def norm2(v):
        return int(v[0]) ** 2 + int(v[1]) ** 2

    best = np.asarray(k, dtype=np.int64)
    for step in (at, at_inv):
        v = np.asarray(k, dtype=np.int64)
        while True:
            v = step @ v
            if norm2(v) > norm2(best) and norm2(v) > norm2(k):
                break
            if (norm2(v), v[0], v[1]) < (norm2(best), best[0], best[1]):
                best = v.copy()
    return int(best[0]), int(best[1])


def enumerate_orbits_per_point(cat, k_max, p_max=2):
    """``operator.enumerate_orbits`` point by point: the representative of
    every lattice point of the ball, and the kept positions and each cell's
    frequency (A^T)^p k0 by int64 matrix products."""
    cutoff = float(k_max) * cat.lambda_u ** p_max
    reps = {}
    rng_k = int(np.ceil(k_max))
    for k1 in range(-rng_k, rng_k + 1):
        for k2 in range(-rng_k, rng_k + 1):
            if (k1, k2) == (0, 0) or k1 * k1 + k2 * k2 > k_max * k_max:
                continue
            reps[orbit_representative(cat, (k1, k2))] = None
    sectors = []
    at = cat.matrix.T
    at_inv = cat.power(-1).T
    for k0 in sorted(reps):
        v = np.asarray(k0, dtype=np.int64)
        p_hi = 0
        w = v.copy()
        while np.linalg.norm(at @ w) <= cutoff:
            w = at @ w
            p_hi += 1
        p_lo = 0
        w = v.copy()
        while np.linalg.norm(at_inv @ w) <= cutoff:
            w = at_inv @ w
            p_lo -= 1
        freqs = tuple(tuple((cat.power(p).T @ v).tolist()) for p in range(p_hi, p_lo - 1, -1))
        sectors.append(OrbitSector(k0=k0, p_lo=p_lo, p_hi=p_hi, freqs=freqs))
    return sectors


def log_weights_every_mode(escape: EscapeFunction, h, run):
    """``operator._run_log_weights`` without the +-j mirror: one
    escape_value call on every mode of the run's (sector, basis) pairs,
    split per sector."""
    logw = np.asarray(escape.escape_value(_mode_adapted(escape.flow, h, run)), dtype=float)
    return np.split(logw, np.cumsum([len(basis) for _, basis in run])[:-1])


def lattice_counts_meshgrid(E, alpha_grid):
    """``harness.synthetic_lattice_counts``'s counts on the full (v1, v2)
    meshgrid at once: O(alpha^2) memory (96 MB at alpha = 640)."""
    counts = []
    for alpha in alpha_grid:
        r_hi = abs(E) * alpha + np.sqrt(alpha)
        r_lo = max(abs(E) * alpha - np.sqrt(alpha), 0.0)
        m = int(np.floor(r_hi))
        g1, g2 = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
        rem_hi = r_hi * r_hi - g1 * g1 - g2 * g2
        rem_lo = r_lo * r_lo - g1 * g1 - g2 * g2
        hi = np.where(rem_hi >= 0.0,
                      2.0 * np.floor(np.sqrt(np.clip(rem_hi, 0, None))) + 1.0, 0.0)
        lo = np.where(rem_lo > 0.0,
                      2.0 * np.ceil(np.sqrt(np.clip(rem_lo, 0, None))) - 1.0, 0.0)
        counts.append(int(np.sum(hi - lo)))
    return counts


def coords(p: BasePoint):
    """Fundamental-domain coordinates (x1, x2, tau) of a base point."""
    return np.array([p.x[0], p.x[1], p.tau])


def vector_field(flow: MappingTorusFlow, p: BasePoint):
    """Generating vector field at p, components (x1, x2, tau)."""
    return np.array([0.0, 0.0, flow.time_change(p.tau)])


def anosov_splitting(flow: MappingTorusFlow, p: BasePoint):
    """Unit frames (E_u, E_s, E_0) at p; constant in this model."""
    e_u = np.array([flow.cat.e_u[0], flow.cat.e_u[1], 0.0])
    e_s = np.array([flow.cat.e_s[0], flow.cat.e_s[1], 0.0])
    e_0 = np.array([0.0, 0.0, 1.0])
    return e_u, e_s, e_0


def flow_map(flow: MappingTorusFlow, p: BasePoint, t: float) -> BasePoint:
    """Time-t map of the flow: the end of ``flow.flow_time`` and the matrix
    power of its seam-crossing count."""
    tau1, crossings = flow.flow_time(p, t)
    x = flow.cat.power(crossings) @ np.array(p.x)
    return BasePoint((x[0], x[1]), tau1)


def dual_splitting(flow: MappingTorusFlow, p: BasePoint):
    """Unit coframes (E*_u, E*_s, E*_0) at p.

    E*_0 annihilates E_u + E_s (so it is proportional to the invariant
    one-form), E*_u annihilates E_u + E_0 and E*_s annihilates E_s + E_0.
    """
    cu = np.array([flow.cat.coframe_u[0], flow.cat.coframe_u[1], 0.0])
    cs = np.array([flow.cat.coframe_s[0], flow.cat.coframe_s[1], 0.0])
    c0 = np.array([0.0, 0.0, 1.0])
    return cu, cs, c0


def anosov_one_form(flow: MappingTorusFlow, p: BasePoint):
    """Covector with kernel E_u + E_s and value 1 on the vector field."""
    return np.array([0.0, 0.0, 1.0 / flow.time_change(p.tau)])


def trapped_point(flow: MappingTorusFlow, p: BasePoint, E: float) -> CotangentPoint:
    """The unique bounded-orbit covector over p on the energy-E shell."""
    alpha = anosov_one_form(flow, p)
    return CotangentPoint(p, (E * alpha[0], E * alpha[1]), E * alpha[2])


def order_value(escape: EscapeFunction, adapted):
    """Full order function m of ``escape``: radial cutoff times the direction
    profile ``s + (n0 - s) m1 + (u - n0) m2``, in [u, s]."""
    m = escape._order_and_escape(adapted, [escape.params])[0][0]
    return m if m.shape else float(m)


def splitting_via_limit(flow: MappingTorusFlow, p: BasePoint, v0, t_max: float,
                        tol: float = 1e-8, seed_tol: float = 1e-8):
    """Recover the unstable direction by pushing a seed forward.

    Transports ``v0`` from ``phi_{-t_max}(p)`` to ``p`` with repeated
    renormalization.  Fails with DegenerateSeed when v0 has no unstable
    component, NonConvergence when t_max is too short for tol.
    """
    v0 = np.asarray(v0, dtype=float)
    if np.linalg.norm(v0) == 0.0:
        raise DegenerateSeed("zero seed vector")
    v0 = v0 / np.linalg.norm(v0)
    e_u, _, _ = anosov_splitting(flow, p)
    # component along e_u in the (e_u, e_s, E_0) frame
    cof = flow.cat.coframe_s
    unstable_part = abs(v0[0] * cof[0] + v0[1] * cof[1]) / abs(
        flow.cat.e_u @ cof)
    if unstable_part < seed_tol:
        raise DegenerateSeed(
            f"seed lies in E_0 + E_s up to {unstable_part:.2e}")
    steps = max(1, int(np.ceil(abs(t_max))))
    dt = float(t_max) / steps
    q = flow_map(flow, p, -float(t_max))
    w = v0.copy()
    for _ in range(steps):
        w = flow.differential(q, dt) @ w
        w = w / np.linalg.norm(w)
        q = flow_map(flow, q, dt)
    if w @ e_u < 0:
        w = -w
    angle = np.linalg.norm(w - e_u)
    if angle > tol:
        raise NonConvergence(
            f"direction still {angle:.2e} from the unstable frame after t={t_max}")
    return w


def from_adapted(flow: MappingTorusFlow, base: BasePoint, triple) -> CotangentPoint:
    """Inverse of ``cotangent.adapted_components`` over the given base point."""
    at, bt, et = (float(v) for v in triple)
    frac = flow.time_change.rectified(base.tau) / flow.period
    lu = flow.cat.lambda_u
    a, b = at * lu**(-frac), bt * lu**frac
    xi = a * flow.cat.coframe_u + b * flow.cat.coframe_s
    return CotangentPoint(base, (xi[0], xi[1]), et / flow.time_change(base.tau))


def direction_flow(escape: EscapeFunction, direction, t):
    """Projective covector flow: ``escape.covector_flow``, normalized."""
    scaled = escape.covector_flow(direction, t)
    return scaled / np.linalg.norm(scaled, axis=-1, keepdims=True)


def stable_bump(escape: EscapeFunction, direction):
    """Cosphere profile: 1 away from the stable cotangent points.

    Equals 1 where the stable-coframe fraction is below the cone
    threshold and 0 where the direction is within the aperture of the
    stable axis, monotone in between.
    """
    d = np.asarray(direction, dtype=float)
    b2 = d[..., 1] ** 2 / np.sum(d * d, axis=-1)
    return 1.0 - smoothstep((b2 - escape._cone2) / (1.0 - 2.0 * escape._cone2))


def unstable_bump(escape: EscapeFunction, direction):
    """Cosphere profile: 1 only near the unstable cotangent points."""
    d = np.asarray(direction, dtype=float)
    a2 = d[..., 0] ** 2 / np.sum(d * d, axis=-1)
    return smoothstep((a2 - escape._cone2) / (1.0 - 2.0 * escape._cone2))


def averaged_order(escape: EscapeFunction, direction, bump=stable_bump,
                   t_avg=None, rtol=1e-9, max_refine=4):
    """Time average of a cosphere bump along the projective flow.

    Adaptive in the panel count: refines until two successive composite
    rules agree to rtol, raising QuadratureFailure otherwise.  Returns a
    value in [0, 1].
    """
    t_avg = escape.params.t_avg if t_avg is None else float(t_avg)
    d = np.asarray(direction, dtype=float)
    panels = 16
    prev = None
    for _ in range(max_refine + 1):
        nodes, weights = composite_gauss_legendre(t_avg, panels, 16)
        vals = bump(escape, direction_flow(escape, d, nodes))
        est = float(np.sum(weights * vals))
        if prev is not None and abs(est - prev) <= rtol * max(1.0, abs(est)):
            return min(max(est, 0.0), 1.0)
        prev = est
        panels *= 2
    raise QuadratureFailure(
        f"bump average did not settle to rtol={rtol} after {max_refine} refinements")


def raw_profiles_one_shot(escape: EscapeFunction, adapted, slab_rows=512):
    """``escape._raw_profiles`` with each profile reduced by one gemv over
    the whole batch.

    Every bump is evaluated at every node; the rows are evaluated
    ``slab_rows`` at a time into one rows x nodes matrix, which bounds the
    temporaries and changes no value (the bumps are elementwise).
    """
    d = np.asarray(adapted, dtype=float)
    batch = d.reshape(-1, 3)
    t = escape._nodes
    ga = np.exp(2.0 * escape.theta * t)
    lo, span = escape._cone2, 1.0 - 2.0 * escape._cone2
    bumps = np.empty((len(batch), len(t)))
    profiles = []
    for stable in (True, False):
        for s in range(0, len(batch), slab_rows):
            rows = batch[s:s + slab_rows]
            a2 = rows[:, 0:1] ** 2 * ga[None, :]
            b2 = rows[:, 1:2] ** 2 / ga[None, :]
            e2 = rows[:, 2:3] ** 2 * np.ones_like(t)[None, :]
            tot = a2 + b2 + e2
            if stable:
                bumps[s:s + slab_rows] = 1.0 - smoothstep((b2 / tot - lo) / span)
            else:
                bumps[s:s + slab_rows] = smoothstep((a2 / tot - lo) / span)
        profiles.append((bumps @ escape._weights).reshape(d.shape[:-1]))
    return tuple(profiles)


def saturate_slope(escape: EscapeFunction, m):
    """Derivative of the saturation ramp applied to the raw profiles."""
    eps = escape.SATURATION
    x = np.clip((m - eps) / (1.0 - 2.0 * eps), 0.0, 1.0)
    return 30.0 * x * x * (1.0 - x) ** 2 / (1.0 - 2.0 * eps)


def order_profile_flow_derivative(escape: EscapeFunction, adapted):
    """Exact flow derivative of the direction profile.

    Uses the endpoint identity of the time average: the derivative of
    each raw profile is the bump difference at +-t_avg over 2 t_avg,
    which is nonnegative pointwise; the saturation contributes a
    nonnegative chain factor, so the combination is nonpositive.
    """
    p = escape.params
    d = np.asarray(adapted, dtype=float)
    nu = d / np.linalg.norm(d, axis=-1, keepdims=True)
    plus = direction_flow(escape, nu, p.t_avg)
    minus = direction_flow(escape, nu, -p.t_avg)
    dm1 = (stable_bump(escape, plus) - stable_bump(escape, minus)) / (2.0 * p.t_avg)
    dm2 = (unstable_bump(escape, plus) - unstable_bump(escape, minus)) / (2.0 * p.t_avg)
    m1_raw, m2_raw = escape._raw_profiles(d)
    return ((p.n0 - p.s) * saturate_slope(escape, m1_raw) * dm1
            + (p.u - p.n0) * saturate_slope(escape, m2_raw) * dm2)
