"""Cross-check oracles shared by the test modules.

These routes are not used by the program: a Gram-matrix singular value
solve, the exact top of the numerical range, the Weyl oracle's spectra as
exact Fractions from its WEYL_DPS roots and from mpmath's dense SVD and
QR eigensolver, their prefix products compared exactly, its exact
polynomials from Berkowitz's recursion in Python ints, the Weyl audit's
prefix comparison as a loop, the neutral-sector part of a spectrum, resolvent-quadrature
projector ranks, the coherent-state projection of a wave packet on a list
of sector blocks (orbit blocks included), the weighted expectation on an
orbit sector through its dense matrix and from its packet coefficients,
the coherent symbol study sector by sector, the orbit
sectors found point by point, the weights of a run with every mode
evaluated, the lattice-shell control counted on the full (v1, v2)
meshgrid, the model's flow map, vector field, splittings and invariant
one-form, the dual coframes and the bounded-orbit covector, the unstable
direction recovered by pushing a seed forward, the inverse of
``cotangent.adapted_components``, the escape function's order function,
and its averaged profiles rebuilt from cosphere bumps: an adaptive
quadrature of the average, its exact flow derivative from the endpoint
identity, the raw profiles of a whole batch reduced by one gemv over
all its rows, and the flow derivative X(G) with every quadrature node
differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

import numpy as np
import scipy.linalg as sla

from catspec.cotangent import CotangentPoint
from catspec.errors import CatspecError, NonConvergence, UnresolvedState
from catspec.escape import EscapeFunction, composite_gauss_legendre, smoothstep
from catspec import charpoly, operator as op
from catspec.harness import _SLACK, WEYL_DPS, WEYL_REL_SLACK, ResonanceSet, WeylAudit
from catspec.model import BasePoint, MappingTorusFlow
from catspec.operator import (OrbitSector, PacketProfile, SectorBlock, TauGrid, _mode_adapted,
                              apply_weight, singular_values)


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


def numerical_range_top(matrix):
    """Largest eigenvalue of the Hermitian imaginary part (exact sup of
    Im of the numerical range)."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.max(np.linalg.eigvalsh((m - m.conj().T) / 2j)))


def weyl_spectra(p: np.ndarray, z_e):
    """Ascending squared singular values of ``p - z_e`` and squared distances
    ``|lambda - z_e|**2``, as exact dyadic Fractions of the root triples
    that ``harness.weyl_oracle`` takes at WEYL_DPS digits.

    ``B = 2**e (p - z_e)`` is a Gaussian-integer matrix; the distances are
    ``|roots of det(x - B)| / 2**e`` and the squared singular values the
    roots of ``det(x - Bᴴ B) / 4**e`` (``catspec.charpoly``), read off their
    real parts since those roots are real and >= 0.  No LAPACK value enters.
    """
    [(eig, gram, e)] = charpoly.polynomials(np.asarray(p, dtype=complex)[None], z_e)
    eig, squares = charpoly.roots([eig, gram], WEYL_DPS)
    return (sorted(Fraction(a, 1 << (f + 2 * e)) for a, _, f in squares),
            sorted(Fraction(a * a + b * b, 1 << 2 * (f + e)) for a, b, f in eig))


def weyl_prefix_ok(squares, dist2):
    """Whether every ascending prefix product of the squared singular values
    ``squares`` is at most that of the squared distances ``dist2`` times the
    squared slack ``harness._SLACK``, compared exactly."""
    slack = Fraction(*_SLACK)
    acc_s = acc_d = 1
    for s, d in zip(squares, dist2):
        acc_s *= s
        acc_d *= d
        if acc_s > acc_d * slack:
            return False
    return True


def weyl_spectra_dense(p: np.ndarray, z_e):
    """The Weyl oracle's spectra the dense way: ascending squares of the
    ``mp.svd_c`` singular values of ``p - z_e`` and of the ``mp.eig``
    distances to ``z_e``, at ``harness.WEYL_DPS`` digits, each squared
    exactly into a Fraction as ``weyl_spectra`` returns them."""
    import mpmath as mp

    def square(x):
        man, exp = mp.mpf(x).man_exp
        return Fraction(man) ** 2 * Fraction(2) ** (2 * exp)

    with mp.workdps(WEYL_DPS):
        m = mp.matrix([[mp.mpc(v) for v in row] for row in np.asarray(p, complex)])
        z = mp.mpc(z_e)
        s = mp.svd_c(m - z * mp.eye(m.rows), compute_uv=False)
        evals = mp.eig(m, left=False, right=False)
        return (sorted(square(s[i]) for i in range(m.rows)),
                sorted(square(abs(ev - z)) for ev in evals))


def weyl_oracle_dense(p: np.ndarray, z_e):
    """The Weyl prefix comparison on the dense high-precision spectra."""
    return weyl_prefix_ok(*weyl_spectra_dense(p, z_e))


def _dot(a, b):
    return sum(map(mul, a, b))


def shifted_dyadic(a, z):
    """``(re, im, e)`` with ``re + i im == 2**e (a - z I)`` exactly, in Python
    ints, for the least ``e >= 0``."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    z = complex(z)
    ratios = [v.as_integer_ratio() for x in [*a.ravel().tolist(), z]
              for v in (x.real, x.imag)]
    e = max(d.bit_length() - 1 for _, d in ratios)
    ints = [num << (e + 1 - d.bit_length()) for num, d in ratios]
    zr, zi = ints[-2:]
    re = [[ints[2 * (i * n + j)] - (zr if i == j else 0) for j in range(n)]
          for i in range(n)]
    im = [[ints[2 * (i * n + j) + 1] - (zi if i == j else 0) for j in range(n)]
          for i in range(n)]
    return re, im, e


def gram(re, im):
    """``Bᴴ B`` of the Gaussian-integer matrix ``B = re + i im``, in Python ints."""
    cr, ci = list(zip(*re)), list(zip(*im))
    n = len(cr)
    return ([[_dot(cr[i], cr[j]) + _dot(ci[i], ci[j]) for j in range(n)]
             for i in range(n)],
            [[_dot(cr[i], ci[j]) - _dot(ci[i], cr[j]) for j in range(n)]
             for i in range(n)])


def berkowitz(re, im):
    """``det(x - M)`` of the Gaussian-integer matrix ``M = re + i im`` by
    Berkowitz's recursion in Python ints: the exact reference of
    ``charpoly.polynomials``.

    Leading block ``k + 1`` is ``[[M_k, C], [R, a]]``; its polynomial is
    the Toeplitz product of ``(1, -a, -R C, -R M_k C, ...)`` with that of
    ``M_k`` (Samuelson's formula).
    """
    poly = [(1, 0)]
    for k in range(len(re)):
        rows_r = [row[:k] for row in re[:k]]
        rows_i = [row[:k] for row in im[:k]]
        rr, ri = re[k][:k], im[k][:k]
        xr, xi = [row[k] for row in re[:k]], [row[k] for row in im[:k]]
        col = [(1, 0), (-re[k][k], -im[k][k])]
        for j in range(k):
            col.append((_dot(ri, xi) - _dot(rr, xr), -_dot(rr, xi) - _dot(ri, xr)))
            if j + 1 < k:
                xr, xi = ([_dot(a, xr) - _dot(b, xi) for a, b in zip(rows_r, rows_i)],
                          [_dot(a, xi) + _dot(b, xr) for a, b in zip(rows_r, rows_i)])
        poly = [(sum(col[t - i][0] * poly[i][0] - col[t - i][1] * poly[i][1]
                     for i in range(min(t, k) + 1)),
                 sum(col[t - i][0] * poly[i][1] + col[t - i][1] * poly[i][0]
                     for i in range(min(t, k) + 1)))
                for t in range(k + 2)]
    return poly


def reference_polynomials(a, z):
    """``(det(x - B), det(x - Bᴴ B), e)`` of ``B = 2**e (a - z I)`` from the
    Python-int reference: what ``charpoly.polynomials`` returns per matrix."""
    re, im, e = shifted_dyadic(a, z)
    return berkowitz(re, im), berkowitz(*gram(re, im)), e


def weyl_audit_loop(p: np.ndarray, z_e, eigenvalues=None) -> WeylAudit:
    """``harness.weyl_audit`` with its prefix comparison as a loop over k."""
    a = np.array(p, dtype=complex)
    if eigenvalues is None:
        eigenvalues = op.eigenvalues(a)
    a.flat[::a.shape[0] + 1] -= z_e
    s = singular_values(a)
    n = len(s)
    d = np.sort(np.abs(np.asarray(eigenvalues, dtype=complex) - complex(z_e)))
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
        log_d = np.log(d)
    worst = np.inf
    ok = True
    acc_s = acc_d = 0.0
    for k in range(n):
        acc_s += log_s[k]
        acc_d += log_d[k]
        if acc_s == -np.inf:
            continue               # zero singular prefix bounds everything
        if acc_d == -np.inf:
            ok = False             # cannot happen for exact data
            worst = -np.inf
            break
        margin = acc_d - acc_s
        worst = min(worst, margin)
        if margin < -WEYL_REL_SLACK * max(1.0, abs(acc_d)):
            ok = False
    return WeylAudit(ok, float(worst))


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
    profile = PacketProfile(TauGrid(flow), alpha_x, alpha_xi, h)
    coeffs = {}
    captured = 0.0
    for block in blocks:
        vec = project_packet(profile, flow, block)
        coeffs[block.key] = vec
        captured += float(np.vdot(vec, vec).real)
    if captured < (1.0 - mass_tol) * profile.ref_norm2:
        raise UnresolvedState(
            f"truncation captures {captured / profile.ref_norm2:.4f} of the packet mass")
    return CoherentState(tuple(profile.ax), tuple(profile.xi), h, coeffs,
                         captured, profile.ref_norm2)


def project_packet(profile: PacketProfile, flow: MappingTorusFlow, block):
    """`PacketProfile.project` on any sector block.  On an orbit block the
    coefficients are the outer product of the packet's cell overlaps with
    its mode integrals, over a phase table built for this call."""
    if isinstance(block.sector, op.NeutralSector):
        return profile.project(flow, block)
    tau_int = profile.orbit_tau_integrals(profile.grid.phase_table(int(block.basis[:, 1].max())))
    x_int = op.torus_overlaps([profile], block.sector.freqs)[0]
    return (x_int[:, None] * tau_int[None, :]).ravel()


def dense_orbit_expectation(block: SectorBlock, escape: EscapeFunction, h, vec):
    """<v, h W H W^{-1} v> on one sector block through its dense matrix.

    The block from `build_generator` is conjugated entrywise by the
    diagonal weight and multiplied; `operator.orbit_expectation` sums the
    same form from the packet's rank-one factors without the matrix.
    """
    return np.vdot(vec, (h * apply_weight(block, escape, h)) @ vec)


def coefficient_orbit_expectation(flow: MappingTorusFlow, truncation, log_weight, coeffs):
    """<v, W H W^{-1} v> on one orbit sector, in O(n) and without its matrix.

    log_weight and coeffs have shape (n_cells, 2 j_max + 1), cells ordered
    as in the sector basis; coeffs may carry leading batch axes (one row
    set per packet).  The sector generator H is block lower bidiagonal:
    diag(2 pi j / T) - i kappa/T 11^T on each cell and i kappa/T 11^T one
    cell below, where kappa is the flux penalty.  With the cell weight
    applied as y_l = W_l^H v_l and u_l = W_l^{-1} v_l, the expectation is
    the sum over cells of sum_j conj(y_lj) (2 pi j / T) u_lj
    - i kappa/T (sum conj y_l)(sum u_l) + i kappa/T (sum conj y_l)(sum u_{l-1}),
    with no inflow into cell 0.  The reference for
    `operator.orbit_expectation`, which reads a packet's two factors instead.
    """
    tbar = flow.period
    omega = 2.0 * np.pi / tbar * np.arange(-truncation.j_max, truncation.j_max + 1)
    w = np.exp(log_weight)
    y_bar = np.conj(w * coeffs)     # conj(W_l^H v_l): the weight is real and diagonal
    u = coeffs / w                  # W_l^{-1} v_l
    y_sum = np.sum(y_bar, axis=-1)
    u_sum = np.sum(u, axis=-1)
    inflow = np.zeros_like(u_sum)
    inflow[..., 1:] = u_sum[..., :-1]
    flux = 1j * truncation.flux_penalty / tbar * np.sum(y_sum * (inflow - u_sum), axis=-1)
    return np.sum(y_bar * u * omega, axis=(-2, -1)) + flux


def coherent_study_per_sector(flow: MappingTorusFlow, params, points, h_list, truncation,
                              j_max=12):
    """``harness.coherent_symbol_study`` sector by sector: (errors, powers).

    One escape_value call per sector (shared by the sectors through k0 and
    -k0) and one torus-overlap call per packet and sector.  The
    rectified-time phases come from the direct formula, not from
    `TauGrid.phase_table`, and each sector's term is
    `coefficient_orbit_expectation` of its packet coefficient arrays.  The
    sector terms are added in sector order, as the batched study adds them.
    """
    from catspec import harness as hs
    from catspec.cotangent import h0

    escape = EscapeFunction(flow, params)
    preds = []
    for ax, xi in points:
        q = CotangentPoint(BasePoint((ax[0], ax[1]), ax[2]), (xi[0], xi[1]), xi[2])
        preds.append(h0(flow, q) + 1j * escape.escape_derivatives([q])[0])

    errors = [dict() for _ in points]
    for h in h_list:
        k_max = hs.coherent_k_max(points, h)
        tr = replace(truncation, k_max=k_max, j_max=j_max)
        profiles = [PacketProfile(TauGrid(flow), ax, xi, h) for ax, xi in points]
        phi = flow.time_change.rectified(profiles[0].taus)
        phases = np.exp(-2j * np.pi * np.outer(np.arange(-j_max, j_max + 1), phi)
                        / flow.period)
        tau_ints = [prof.orbit_tau_integrals(phases) for prof in profiles]
        neutral = op.build_generator(flow, op.NeutralSector(), tr)
        mat = h * apply_weight(neutral, escape, h)
        vecs = [prof.project(flow, neutral) for prof in profiles]
        acc = np.array([np.vdot(v, mat @ v) for v in vecs])
        norms = np.array([float(np.vdot(v, v).real) for v in vecs])
        weights = {}
        for sector in op.enumerate_orbits(flow.cat, k_max, tr.p_max):
            key = op.mirror_key(sector)
            if key not in weights:
                weights[key] = op.mode_log_weight(sector, op.sector_basis(sector, tr),
                                                  escape, h)
            coeffs = np.stack([op.torus_overlaps([prof], sector.freqs)[0][:, None] * t[None, :]
                               for prof, t in zip(profiles, tau_ints)])
            acc += h * coefficient_orbit_expectation(
                flow, tr, weights[key].reshape(sector.n_cells, -1), coeffs)
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
    logw = escape.escape_value(_mode_adapted(escape.flow, h, run), [escape.params])[0]
    return np.split(logw, np.cumsum([len(basis) for _, basis in run])[:-1])


def log_weights_one_pass(escape: EscapeFunction, h, run):
    """``operator._run_log_weights`` without its memo: one escape_value
    call on the j >= 0 modes of the run's (sector, basis) pairs, each mode
    with j < 0 taking the value of its mirror, split per sector."""
    js = np.concatenate([basis[:, 1] for _, basis in run])
    mirror = np.arange(len(js)) - 2 * np.minimum(js, 0)
    halves = [(sector, basis[basis[:, 1] >= 0]) for sector, basis in run]
    half = escape.escape_value(_mode_adapted(escape.flow, h, halves), [escape.params])[0]
    logw = half[(np.cumsum(js >= 0) - 1)[mirror]]
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
    m = escape._order_and_escape(adapted, [escape.params], False, escape._one_pass)[0][0]
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


def raw_profiles_one_shot(escape: EscapeFunction, adapted, slab_rows=512, pad=True):
    """``escape._averages`` without rates, with each profile reduced by one gemv over
    the whole batch.

    Every bump is evaluated at every node; the rows are evaluated
    ``slab_rows`` at a time into one rows x nodes matrix, which bounds the
    temporaries and changes no value (the bumps are elementwise).  The
    matrix is padded with zero rows to a multiple of 4 rows (one row alone
    is not), so that the gemv reduces every row in its 4-row kernel; with
    ``pad`` false it is not, and the last ``n mod 4`` rows take the gemv's
    remainder kernel.
    """
    d = np.asarray(adapted, dtype=float)
    batch = d.reshape(-1, 3)
    t = escape._nodes
    ga = np.exp(2.0 * escape.theta * t)
    lo, span = escape._cone2, 1.0 - 2.0 * escape._cone2
    bumps = np.zeros((len(batch) + (-len(batch) % 4 if pad and len(batch) > 1 else 0), len(t)))
    profiles = []
    for stable in (True, False):
        for s in range(0, len(batch), slab_rows):
            rows = batch[s:s + slab_rows]
            a2 = rows[:, 0:1] ** 2 * ga[None, :]
            b2 = rows[:, 1:2] ** 2 / ga[None, :]
            e2 = rows[:, 2:3] ** 2 * np.ones_like(t)[None, :]
            tot = a2 + b2 + e2
            if stable:
                bumps[s:s + len(rows)] = 1.0 - smoothstep((b2 / tot - lo) / span)
            else:
                bumps[s:s + len(rows)] = smoothstep((a2 / tot - lo) / span)
        profiles.append((bumps @ escape._weights)[:len(batch)].reshape(d.shape[:-1]))
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
    m1_raw, m2_raw = escape._averages(d, False)
    return ((p.n0 - p.s) * saturate_slope(escape, m1_raw) * dm1
            + (p.u - p.n0) * saturate_slope(escape, m2_raw) * dm2)


def escape_derivative_one_shot(escape: EscapeFunction, adapted):
    """``escape.escape_derivative_adapted`` with every node of the profile
    quadrature differentiated, no windows, and the chain rule written out
    by the quotient rule.

    Along the flow ``A = a^2 g``, ``B = b^2 / g`` with ``g = exp(2 theta
    t)``, so ``A' = 2 theta A``, ``B' = -2 theta B`` and ``|e|`` is
    conserved; the bump slopes are the quintic ramp's ``30 x^2 (1 - x)^2``.
    """
    d = np.asarray(adapted, dtype=float)
    batch = d.reshape(-1, 3)
    p, theta = escape.params, escape.theta
    lo, span = escape._cone2, 1.0 - 2.0 * escape._cone2
    ga = np.exp(2.0 * theta * escape._nodes)

    def slope(x):
        x = np.clip(x, 0.0, 1.0)
        return 30.0 * x * x * (1.0 - x) ** 2

    a2 = batch[:, 0:1] ** 2 * ga
    b2 = batch[:, 1:2] ** 2 / ga
    tot = a2 + b2 + batch[:, 2:3] ** 2
    dtot = 2.0 * theta * (a2 - b2)
    da = (2.0 * theta * a2 * tot - a2 * dtot) / tot ** 2
    db = (-2.0 * theta * b2 * tot - b2 * dtot) / tot ** 2
    dm1_raw = (-slope((b2 / tot - lo) / span) * db / span) @ escape._weights
    dm2_raw = (slope((a2 / tot - lo) / span) * da / span) @ escape._weights
    m1_raw, m2_raw = raw_profiles_one_shot(escape, batch)
    eps = escape.SATURATION
    m1, m2 = (smoothstep((m - eps) / (1.0 - 2.0 * eps)) for m in (m1_raw, m2_raw))
    dm1 = saturate_slope(escape, m1_raw) * dm1_raw
    dm2 = saturate_slope(escape, m2_raw) * dm2_raw

    sq = batch ** 2
    r = np.sqrt(sq.sum(axis=1))
    dr = theta * (sq[:, 0] - sq[:, 1]) / r
    ramp = smoothstep(1.0 + np.log2(r))
    dramp = slope(1.0 + np.log2(r)) * dr / (r * np.log(2.0))
    level = p.s + (p.n0 - p.s) * m1 + (p.u - p.n0) * m2
    m = ramp * level
    dm = dramp * level + ramp * ((p.n0 - p.s) * dm1 + (p.u - p.n0) * dm2)

    rho2 = (sq[:, 0] + sq[:, 1]) / r ** 2
    drho2 = (2.0 * theta * (sq[:, 0] - sq[:, 1]) * r ** 2
             - (sq[:, 0] + sq[:, 1]) * 2.0 * r * dr) / r ** 4
    y = (rho2 - escape._cone2) / (escape._blend2 - escape._cone2)
    w0 = 1.0 - smoothstep(y)
    dw0 = -slope(y) * drho2 / (escape._blend2 - escape._cone2)
    e = np.abs(batch[:, 2])
    f = w0 * e + (1.0 - w0) * r
    df = dw0 * e - dw0 * r + (1.0 - w0) * dr
    xg = dm * 0.5 * np.log1p(f * f) + m * f * df / (1.0 + f * f)
    return xg.reshape(d.shape[:-1])
