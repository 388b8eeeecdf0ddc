"""Mode-space discretization of the generator and its weighted conjugate.

The twist identification ``(x, 1) ~ (A x, 0)`` turns each transpose-orbit
of a nonzero torus frequency into a line of coupled cells; the generator
acts there as first-order transport, discretized cell-by-cell in a
rectified-time Fourier basis with an upwind interface flux.  Zero inflow
is imposed at the stable-coframe end of the truncated line and mass flows
out at the unstable-coframe end, where the anisotropic weight is
geometrically small; hard truncation there is the boundary convention
used throughout.  The k = 0 sector keeps the plain Fourier basis, where
the generator matrix is the frequency diagonal scaled by the time
change's Fourier coefficients.

The diagonal weight evaluates the escape-function exponential at one
representative phase point per mode: the mode's covector with its frame
components taken at tau = 0.  In an orbit sector this is not the
multiplier quantization of the weight.  The frame components scale by
lambda_u^(+-s(tau)/T) along the period, but the diagonal keeps each cell's
value at tau = 0, so inside a cell the weight is constant in tau: it
commutes with the in-cell transport, and only the interface flux between
cells sees it.

Matrices act on coefficient vectors; each sector's basis is orthonormal in
its own inner product (plain for the neutral sector, time-rectified for
orbit sectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cotangent
from .errors import NonConvergence, TruncationTooSmall, WeightOverflow
from .escape import EscapeFunction, smoothstep
from .model import MappingTorusFlow


# ---------------------------------------------------------------------------
# sectors and mode bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeutralSector:
    """The k = 0 frequency sector."""

    key: str = "neutral"


@dataclass(frozen=True)
class OrbitSector:
    """One transpose-orbit of nonzero torus frequencies.

    k0 is the minimal-norm representative (ties broken lexicographically);
    the cells are the kept powers p_lo <= p <= p_hi, with p_lo <= 0 <= p_hi
    and frequency (A^T)^p k0.
    """

    k0: tuple
    p_lo: int
    p_hi: int

    @property
    def key(self):
        return f"orbit{self.k0[0]},{self.k0[1]}"

    @property
    def n_cells(self):
        return self.p_hi - self.p_lo + 1


@dataclass(frozen=True)
class Truncation:
    k_max: int = 6
    p_max: int = 2
    j_max: int = 24
    j_buffer: int = 0           # 0 -> automatic buffer for the neutral sector
    flux_penalty: float = 1.6
    edge_guard: int = 6

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.j_max < 0:
            raise ValueError("j_max must be at least 0")
        if self.flux_penalty <= 0.0:
            raise ValueError("flux penalty must be positive for a dissipative truncation")
        if self.p_max < 2:
            raise TruncationTooSmall(f"p_max must be >= 2, got {self.p_max}")

    def neutral_buffer(self):
        if self.j_buffer > 0:
            return self.j_buffer
        return max(16, int(np.ceil(10 + 0.35 * self.j_max)))


def _transpose_steps(cat):
    """The steps k -> A^T k and k -> (A^T)^-1 k on Python-int pairs (det A = 1)."""
    (a11, a12), (a21, a22) = cat.matrix.tolist()

    def up(k):
        return a11 * k[0] + a21 * k[1], a12 * k[0] + a22 * k[1]

    def down(k):
        return a22 * k[0] - a21 * k[1], a11 * k[1] - a12 * k[0]

    return up, down


def enumerate_orbits(cat, k_max, p_max=2):
    """All orbit sectors meeting the ball |k| <= k_max, with kept positions.

    One pass over the lattice points of the ball, in Python ints: each
    point not yet seen walks its A^T-orbit forward and backward while it
    stays in the ball, and marks every member seen.  The squared norm along
    an orbit is c1 lambda_u^(2p) + c2 lambda_u^(-2p) + c3 with c1, c2 > 0,
    so it is unimodal: the members in the ball are contiguous and hold the
    orbit's minimal-norm element, the representative k0 (ties broken
    lexicographically).  Positions p are kept while |(A^T)^p k0| stays
    below the cutoff k_max * lambda_u**p_max, so the window grows with both
    knobs.
    """
    up, down = _transpose_steps(cat)
    r2 = k_max * k_max
    rng_k = math.ceil(k_max)
    seen = set()
    reps = []
    for k1 in range(-rng_k, rng_k + 1):
        for k2 in range(-rng_k, rng_k + 1):
            if (k1, k2) == (0, 0) or k1 * k1 + k2 * k2 > r2 or (k1, k2) in seen:
                continue
            members = [(k1, k2)]
            for step in (up, down):
                k = step((k1, k2))
                while k[0] * k[0] + k[1] * k[1] <= r2:
                    members.append(k)
                    k = step(k)
            seen.update(members)
            reps.append(min(members, key=lambda k: (k[0] * k[0] + k[1] * k[1], k)))
    cutoff = float(k_max) * cat.lambda_u ** p_max
    sectors = []
    for k0 in sorted(reps):
        ends = []
        for step in (up, down):
            p, k = 0, step(k0)
            while math.sqrt(k[0] * k[0] + k[1] * k[1]) <= cutoff:
                p, k = p + 1, step(k)
            ends.append(p)
        sectors.append(OrbitSector(k0=k0, p_lo=-ends[1], p_hi=ends[0]))
    return sectors


def sector_frequencies(cat, sector):
    """Torus frequency (A^T)^p k0 for each cell, ordered along the line.

    Cell 0 sits at the zero-inflow (stable-coframe) end, which carries the
    largest position p; the flow transports mass toward increasing cell
    index, i.e. toward the unstable-coframe end.  The frequencies are
    pairs of Python ints.
    """
    up, down = _transpose_steps(cat)
    k = sector.k0
    for _ in range(sector.p_hi):
        k = up(k)
    freqs = [k]
    for _ in range(sector.n_cells - 1):
        k = down(k)
        freqs.append(k)
    return freqs


def mirror_key(freqs):
    """Sign-canonical form of an orbit sector's `sector_frequencies`.

    The sectors through k0 and -k0 keep the same cells with opposite
    frequencies; both get the larger of the two tuples.  Their weights are
    equal bit for bit: the horizontal components of -k are exactly -(a, b)
    (a linear solve), and the escape function reads only squares, norms and
    |e| of the frame components.
    """
    freqs = tuple(freqs)
    return max(freqs, tuple((-k1, -k2) for k1, k2 in freqs))


# ---------------------------------------------------------------------------
# generator blocks
# ---------------------------------------------------------------------------

@dataclass
class SectorBlock:
    """One sector's generator matrix and its mode basis.

    basis is an int64 array of shape (dim, 2): row i holds the orbit
    position p (0 for the neutral sector) and the frequency j of mode i.
    Orbit modes are cell-major with j ascending inside each cell.
    """

    sector: object
    basis: np.ndarray
    matrix: np.ndarray

    @property
    def key(self):
        return self.sector.key

    @property
    def dim(self):
        return self.matrix.shape[0]


def build_generator(flow: MappingTorusFlow, sector, truncation: Truncation) -> SectorBlock:
    """Matrix block of the generator -i c(tau) d/dtau for one sector."""
    if isinstance(sector, NeutralSector):
        jmax = truncation.j_max + truncation.neutral_buffer()
        js = np.arange(-jmax, jmax + 1)
        n = js.size
        h = np.zeros((n, n), dtype=complex)
        degree = flow.time_change.degree
        for d in range(-degree, degree + 1):
            coef = flow.time_change.fourier_coefficient(d)
            if coef == 0:
                continue
            cols = np.arange(max(0, -d), min(n, n - d))
            h[cols + d, cols] += 2.0 * np.pi * js[cols] * coef
        basis = np.column_stack([np.zeros_like(js), js])
        return SectorBlock(sector, basis, h)

    cell = orbit_cell_block(flow, truncation)
    nj = 2 * truncation.j_max + 1
    ncell = sector.n_cells
    h = np.zeros((ncell * nj, ncell * nj), dtype=complex)
    hop_flux = (1j * truncation.flux_penalty / flow.period
                * np.ones((nj, nj), dtype=complex))
    for ell in range(ncell):
        sl = slice(ell * nj, (ell + 1) * nj)
        h[sl, sl] = cell
        if ell > 0:
            h[sl, slice((ell - 1) * nj, ell * nj)] = hop_flux
    return SectorBlock(sector, orbit_basis(sector, truncation.j_max), h)


def orbit_basis(sector: OrbitSector, j_max):
    """(p, j) modes of an orbit sector: cell-major, j ascending per cell."""
    js = np.arange(-j_max, j_max + 1)
    return np.column_stack([np.repeat(sector.p_hi - np.arange(sector.n_cells), js.size),
                            np.tile(js, sector.n_cells)])


def orbit_cell_block(flow: MappingTorusFlow, truncation: Truncation):
    """Diagonal cell block shared by every orbit sector.

    The sector matrices are block lower bidiagonal with identical diagonal
    blocks, so the exact sector spectrum is the spectrum of this block with
    algebraic multiplicity equal to the cell count.  Conjugation by the
    diagonal weight acts cell-wise, hence leaves the block spectrum
    unchanged.  Dense solves of the full sector matrix scatter these
    Jordan-degenerate eigenvalues; the block route is the well-conditioned
    way to read them off.
    """
    tbar = flow.period
    js = np.arange(-truncation.j_max, truncation.j_max + 1)
    block = np.diag(2.0 * np.pi / tbar * js).astype(complex)
    block -= 1j * truncation.flux_penalty / tbar * np.ones((js.size, js.size))
    return block


def _sector_modes(flow: MappingTorusFlow, sector, basis):
    """The (sector, basis, freqs) triple of `sector_log_weights`; freqs is
    the sector's `sector_frequencies`, or None for the neutral sector."""
    if isinstance(sector, NeutralSector):
        return sector, basis, None
    return sector, basis, sector_frequencies(flow.cat, sector)


def _mode_adapted(flow: MappingTorusFlow, h, sectors):
    """Equivariant frame components of every mode covector (rep. tau = 0).

    sectors holds (sector, basis, freqs) triples (`_sector_modes`); the
    rows of their modes are stacked in order.  Mode (p, j) of an orbit
    sector sits at the phase-space covector 2 pi h ((A^T)^p k0, j), the
    frequency of its cell in freqs; neutral modes have zero horizontal part.
    """
    k = np.concatenate([np.zeros((len(basis), 2)) if freqs is None
                        else np.repeat(np.asarray(freqs, dtype=float),
                                       len(basis) // len(freqs), axis=0)
                        for _, basis, freqs in sectors])
    js = np.concatenate([basis[:, 1] for _, basis, _ in sectors])
    ab = cotangent.horizontal_components(flow, 2.0 * np.pi * h * k)
    c0 = float(flow.time_change(0.0))
    return np.column_stack([ab, c0 * (2.0 * np.pi * h * js)])


# ---------------------------------------------------------------------------
# weighted generator
# ---------------------------------------------------------------------------

def conjugate_by_diagonal(matrix, log_weight):
    """W M W^{-1} for W = diag(exp(log_weight)), computed entrywise.

    Scales entry (i, j) by exp(log_weight[i] - log_weight[j]); the diagonal
    is untouched.
    """
    logw = np.asarray(log_weight, dtype=float)
    return np.asarray(matrix) * np.exp(logw[:, None] - logw[None, :])


#: modes per escape_value call of `sector_log_weights`; a call holds whole
#: sectors, so a sector with more modes gets a call of its own
WEIGHT_ROWS = 4096


def sector_log_weights(flow: MappingTorusFlow, escape: EscapeFunction, h, sectors):
    """Log of the diagonal escape weight on each of `sectors`, run by run.

    sectors holds (sector, basis, freqs) triples (`_sector_modes`).  Runs
    of whole sectors with at most WEIGHT_ROWS modes in all share one
    escape_value call, and each run yields the list of its sectors' log
    weights, one value per mode of each basis.  Only one run is evaluated
    at a time, so the storage follows WEIGHT_ROWS, not the sector count.

    Raises WeightOverflow, naming h and the sector, when a weight or its
    inverse would leave the double range, or when a mode covector already
    overflows on the way.
    """
    run, rows = [], 0
    for item in sectors:
        if run and rows + len(item[1]) > WEIGHT_ROWS:
            yield _run_log_weights(flow, escape, h, run)
            run, rows = [], 0
        run.append(item)
        rows += len(item[1])
    if run:
        yield _run_log_weights(flow, escape, h, run)


def _named(run):
    """The sector or sectors of a run, their mode count and largest |j|."""
    bases = [basis for _, basis, _ in run]
    names = run[0][0].key if len(run) == 1 else f"{run[0][0].key} to {run[-1][0].key}"
    return (f"sector {names} ({sum(map(len, bases))} modes, "
            f"|j| <= {max(int(np.abs(b[:, 1]).max()) for b in bases)})")


def _run_log_weights(flow, escape, h, run):
    """One escape_value call for the sectors of a run, split per sector.

    The escape function reads a covector's frame components only through
    a^2, b^2, e^2, |xi| and |e|, and the e of mode (p, -j) is exactly minus
    that of (p, j), so the two weights are equal.  Only the modes with
    j >= 0 are evaluated; the j of an orbit cell and of the neutral sector
    run ascending and symmetric, so the mirror of a mode with j < 0 lies
    2|j| rows further on (ValueError for a basis laid out otherwise).
    """
    ps, js = np.concatenate([basis for _, basis, _ in run]).T
    mirror = np.arange(len(js)) - 2 * np.minimum(js, 0)
    if mirror.max() >= len(js) or np.any(js[mirror] != np.abs(js)) or np.any(ps[mirror] != ps):
        raise ValueError("each cell's j must run ascending and symmetric")
    halves = [(sector, basis[basis[:, 1] >= 0], freqs) for sector, basis, freqs in run]
    try:
        with np.errstate(over="raise", invalid="raise"):
            half = np.asarray(escape.escape_value(_mode_adapted(flow, h, halves)), dtype=float)
    except FloatingPointError as exc:
        if len(run) > 1:
            # the rows are independent: the sector's own call raises too
            for item in run:
                _run_log_weights(flow, escape, h, [item])
        raise WeightOverflow(
            f"escape weight at h = {h:g} overflows on {_named(run)}: {exc}; "
            "reduce h or the truncation") from exc
    logw = half[(np.cumsum(js >= 0) - 1)[mirror]]
    parts = np.split(logw, np.cumsum([len(basis) for _, basis, _ in run])[:-1])
    for item, part in zip(run, parts):
        if np.any(np.abs(part) > 700.0):
            raise WeightOverflow(
                f"max |log weight| = {np.abs(part).max():.1f} exceeds 700 at h = {h:g} "
                f"on {_named([item])}; reduce |u|, s or the truncation")
    return parts


def mode_log_weight(flow: MappingTorusFlow, sector, basis, escape: EscapeFunction, h):
    """Log of the diagonal escape weight, one value per mode of `basis`:
    `sector_log_weights` on this one sector."""
    return next(sector_log_weights(flow, escape, h, [_sector_modes(flow, sector, basis)]))[0]


def apply_weight(block: SectorBlock, escape: EscapeFunction, h: float) -> np.ndarray:
    """Conjugated block P = W H W^{-1} for the diagonal escape weight at h.

    Entries are scaled by weight ratios, P_ij = w_i H_ij / w_j, so the
    diagonal of P equals the diagonal of H exactly.  The h-rescaled
    operator, in the spectral variable z = h lambda, is h * P.
    """
    logw = mode_log_weight(escape.flow, block.sector, block.basis, escape, h)
    return conjugate_by_diagonal(block.matrix, logw)


def orbit_expectation(flow: MappingTorusFlow, truncation: Truncation, log_weight, coeffs):
    """<v, W H W^{-1} v> on one orbit sector, in O(n) and without its matrix.

    log_weight and coeffs have shape (n_cells, 2 j_max + 1), cells ordered
    as in the sector basis; coeffs may carry leading batch axes (one row
    set per packet).  The sector generator H is block lower bidiagonal:
    diag(2 pi j / T) - i kappa/T 11^T on each cell and i kappa/T 11^T one
    cell below, where kappa is the flux penalty.  With the cell weight
    applied as y_l = W_l^H v_l and u_l = W_l^{-1} v_l, the expectation is
    the sum over cells of sum_j conj(y_lj) (2 pi j / T) u_lj
    - i kappa/T (sum conj y_l)(sum u_l) + i kappa/T (sum conj y_l)(sum u_{l-1}),
    with no inflow into cell 0.
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


# ---------------------------------------------------------------------------
# dense solvers
# ---------------------------------------------------------------------------

@dataclass
class EigenPair:
    value: complex
    vector: np.ndarray
    residual: float


def eigendecompose(p: np.ndarray, norm=None):
    """Dense non-Hermitian eigendecomposition, sorted by descending Im.

    Returns EigenPair entries with relative residuals ||Pv - lv|| / ||P||.
    """
    p = np.asarray(p, dtype=complex)
    try:
        if norm is None:
            norm = np.linalg.norm(p, 2) if p.size else 0.0
        vals, vecs = np.linalg.eig(p)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"dense eigensolver failed: {exc}") from exc
    order = np.argsort(-vals.imag, kind="stable")
    out = []
    for idx in order:
        v = vecs[:, idx]
        res = np.linalg.norm(p @ v - vals[idx] * v) / max(norm, 1e-300)
        out.append(EigenPair(complex(vals[idx]), v, float(res)))
    return out


def singular_values(p: np.ndarray, z_e=0.0):
    """Ascending singular values of (P - z_e I)."""
    p = np.asarray(p, dtype=complex)
    shifted = p - complex(z_e) * np.eye(p.shape[0])
    return np.sort(np.linalg.svd(shifted, compute_uv=False))


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

class PacketProfile:
    """Shared suspension-coordinate data for one Gaussian wave packet."""

    def __init__(self, flow: MappingTorusFlow, alpha_x, alpha_xi, h,
                 tau_grid=4096):
        self.ax = np.asarray(alpha_x, dtype=float)
        self.xi = np.asarray(alpha_xi, dtype=float)
        self.h = float(h)
        self.gamma = float(np.sqrt(1.0 + self.xi @ self.xi)) / self.h
        self.taus = (np.arange(tau_grid) + 0.5) / tau_grid
        self.dtau = 1.0 / tau_grid
        dt = (self.taus - self.ax[2] + 0.5) % 1.0 - 0.5
        self.g_tau = np.exp(1j * self.xi[2] * dt / self.h
                            - 0.5 * self.gamma * dt * dt)
        self.c_vals = flow.time_change(self.taus)
        self.time_change = flow.time_change
        self.tbar = flow.period
        # continuum packet norm in the rectified measure (the packet lives
        # on nonzero-frequency sectors, which use that measure)
        self.ref_norm2 = (np.pi / self.gamma) * float(
            np.sum(np.abs(self.g_tau) ** 2 / self.c_vals) * self.dtau)

    def phase_table(self, j_max):
        """Rectified-time phases exp(-2 pi i j phi(tau) / T), |j| <= j_max,
        on the tau grid: shape (2 j_max + 1, tau_grid).  The table depends
        on the grid only, so packets on one grid can share it."""
        js = np.arange(-j_max, j_max + 1)
        phi = self.time_change.rectified(self.taus)
        return np.exp(-2j * np.pi * np.outer(js, phi) / self.tbar)

    def orbit_tau_integrals(self, phases):
        """Rectified-time integral of each orbit mode against the packet,
        for a `phase_table`: one value per row."""
        return (phases @ (self.g_tau / self.c_vals)) * self.dtau / np.sqrt(self.tbar)

    def torus_overlaps(self, freqs):
        """Closed-form torus overlap of the packet with each row of the
        (n, 2) frequencies freqs.  On an orbit sector the packet's
        coefficients are the outer product of the overlaps of its cells
        (`sector_frequencies`) with the `orbit_tau_integrals`."""
        return _gaussian_x_integral(np.asarray(freqs, dtype=float), self.ax[:2],
                                    self.xi[:2], self.h, self.gamma)

    def project(self, flow, block):
        """Coefficient vector of the packet on one sector block."""
        if isinstance(block.sector, NeutralSector):
            # midpoint sum of g_tau exp(-2 pi i j tau) over taus = (m + 1/2)/N,
            # i.e. exp(-i pi j / N) times the DFT of g_tau at j mod N
            js = block.basis[:, 1]
            n = self.taus.size
            tau_int = (self.dtau * np.exp(-1j * np.pi * js / n)
                       * np.fft.fft(self.g_tau)[js % n])
            return self.torus_overlaps(np.zeros((1, 2)))[0] * tau_int
        tau_int = self.orbit_tau_integrals(self.phase_table(int(block.basis[:, 1].max())))
        x_int = self.torus_overlaps(sector_frequencies(flow.cat, block.sector))
        return (x_int[:, None] * tau_int[None, :]).ravel()


def _gaussian_x_integral(freqs, x0, xi_x, h, gamma):
    """Closed-form torus-Gaussian overlaps for a batch of frequencies."""
    q = xi_x[None, :] / h - 2.0 * np.pi * np.asarray(freqs, dtype=float)
    phase = np.exp(-2j * np.pi * (freqs @ x0))
    return (2.0 * np.pi / gamma) * phase * np.exp(-np.sum(q * q, axis=1) / (2.0 * gamma))


# ---------------------------------------------------------------------------
# appendix-level numeric checks
# ---------------------------------------------------------------------------

def quadratic_partition(radii, r0=1.0, r1=3.0):
    """Diagonal radial multipliers with chi0^2 + chi1^2 = 1 exactly."""
    s = smoothstep((np.asarray(radii) - r0) / (r1 - r0))
    return np.cos(0.5 * np.pi * s), np.sin(0.5 * np.pi * s)


def partition_ims_check(block: SectorBlock, escape: EscapeFunction, z,
                        h_list, trials=20, r0=2.0, r1=10.0, seed=0):
    """Localization-defect residuals r(h) of the quadratic partition.

    For each h the weighted, h-rescaled block A = h P - z is split by the
    radial multipliers and r(h) = | ||A u||^2 - ||A chi0 u||^2
    - ||A chi1 u||^2 | / ||u||^2 is averaged over random test vectors.  The
    vectors are random wave packets (random center in the partition band,
    random phase ramp): the quadratic form on packets probes the
    symbol-level O(h^2) localization defect, whereas white noise only sees
    its statistical fluctuations.
    """
    flow = escape.flow
    n = block.dim
    js = block.basis[:, 1].astype(float)
    c0 = float(flow.time_change(0.0))
    out = {}
    for h in h_list:
        a = h * apply_weight(block, escape, h) - complex(z) * np.eye(n)
        radii = np.linalg.norm(
            _mode_adapted(flow, h, [_sector_modes(flow, block.sector, block.basis)]), axis=1)
        chi0, chi1 = quadratic_partition(radii, r0, r1)
        rng = np.random.default_rng(seed)
        vals = []
        for _ in range(trials):
            r_c = rng.uniform(r0, r1)
            j_c = rng.choice([-1.0, 1.0]) * r_c / (2.0 * np.pi * h * c0)
            j_c = np.clip(j_c, js.min() + 1.0, js.max() - 1.0)
            width = np.sqrt(max(r_c, 1.0) / h) / (2.0 * np.pi)
            u = (np.exp(-0.5 * ((js - j_c) / width) ** 2)
                 * np.exp(2j * np.pi * js * rng.random()))
            au = a @ u
            a0 = a @ (chi0 * u)
            a1 = a @ (chi1 * u)
            res = (np.vdot(au, au) - np.vdot(a0, a0) - np.vdot(a1, a1)).real
            vals.append(abs(res) / np.vdot(u, u).real)
        out[float(h)] = float(np.mean(vals))
    return out


def garding_upper_check(hp: np.ndarray, trials=200, seed=0, shift=0.0):
    """Max over random vectors of Im <u, (h P - i shift) u> / ||u||^2.

    hp is the h-rescaled weighted block h P.
    """
    rng = np.random.default_rng(seed)
    n = hp.shape[0]
    p = hp - 1j * shift * np.eye(n)
    top = -np.inf
    for _ in range(trials):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        top = max(top, float(np.vdot(u, p @ u).imag / np.vdot(u, u).real))
    return top


def numerical_range_top(matrix):
    """Largest eigenvalue of the Hermitian imaginary part (exact sup of
    Im of the numerical range)."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.max(np.linalg.eigvalsh((m - m.conj().T) / 2j)))

