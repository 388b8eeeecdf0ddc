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
from .errors import NonConvergence, TruncationTooLarge, WeightOverflow
from .escape import EscapeFunction, smoothstep
from .model import MappingTorusFlow


# ---------------------------------------------------------------------------
# sectors and mode bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeutralSector:
    """The k = 0 frequency sector: one cell, at frequency (0, 0)."""

    key = "neutral"
    freqs = ((0, 0),)


@dataclass(frozen=True)
class OrbitSector:
    """One transpose-orbit of nonzero torus frequencies.

    k0 is the minimal-norm representative (ties broken lexicographically);
    the cells are the kept powers p_lo <= p <= p_hi, with p_lo <= 0 <= p_hi.
    freqs holds the frequency (A^T)^p k0 of each cell as a pair of Python
    ints, ordered along the line: cell 0 sits at the zero-inflow
    (stable-coframe) end, which carries the largest position p, and the
    flow transports mass toward increasing cell index.
    """

    k0: tuple
    p_lo: int
    p_hi: int
    freqs: tuple

    @property
    def key(self):
        return f"orbit{self.k0[0]},{self.k0[1]}"

    @property
    def n_cells(self):
        return self.p_hi - self.p_lo + 1


@dataclass(frozen=True)
class Truncation:
    """Cutoffs and flux penalty of the mode truncation ([solver] of the config)."""

    k_max: int
    p_max: int
    j_max: int
    j_buffer: int               # 0 -> automatic buffer for the neutral sector
    flux_penalty: float
    edge_guard: int

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


def enumerate_orbits(cat, k_max, p_max):
    """All orbit sectors meeting the ball |k| <= k_max, with kept positions.

    One pass over the lattice points of the ball, in Python ints: each
    point not yet seen walks its A^T-orbit forward and backward while it
    stays in the ball, and marks every member seen.  The squared norm along
    an orbit is c1 lambda_u^(2p) + c2 lambda_u^(-2p) + c3 with c1, c2 > 0,
    so it is unimodal: the members in the ball are contiguous and hold the
    orbit's minimal-norm element, the representative k0 (ties broken
    lexicographically).  Positions p are kept while |(A^T)^p k0| stays
    below the cutoff k_max * lambda_u**p_max, so the window grows with both
    knobs; the walk to the cutoff gives the sector's cell frequencies.
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
    sectors = []
    try:    # the cutoff, or a squared norm on the walk to it, can leave the double range
        cutoff = float(k_max) * float(cat.lambda_u) ** p_max
        for k0 in sorted(reps):
            walks = []
            for step in (up, down):
                walk, k = [], step(k0)
                while math.sqrt(k[0] * k[0] + k[1] * k[1]) <= cutoff:
                    walk.append(k)
                    k = step(k)
                walks.append(walk)
            ups, downs = walks
            sectors.append(OrbitSector(k0=k0, p_lo=-len(downs), p_hi=len(ups),
                                       freqs=(*reversed(ups), k0, *downs)))
    except OverflowError as exc:
        raise TruncationTooLarge(f"the orbit window at p_max = {p_max} overflows") from exc
    return sectors


def restrict_orbits(cat, sectors, k_max, p_max):
    """`enumerate_orbits(cat, k_max, p_max)` read off the `sectors` it gives
    at a larger k_max: the sectors with k0 in the smaller ball, less the end
    cells past the smaller cutoff (the norm grows away from k0)."""
    cutoff, kept = float(k_max) * cat.lambda_u ** p_max, []
    for s in (s for s in sectors if s.k0[0] ** 2 + s.k0[1] ** 2 <= k_max * k_max):
        inside = [i for i, k in enumerate(s.freqs) if math.sqrt(k[0] ** 2 + k[1] ** 2) <= cutoff]
        lo, hi = inside[0], inside[-1] + 1
        kept.append(OrbitSector(s.k0, s.p_hi - hi + 1, s.p_hi - lo, s.freqs[lo:hi]))
    return kept


def mirror_key(sector):
    """Sign-canonical form of a sector's cell frequencies.

    The orbit sectors through k0 and -k0 keep the same cells with opposite
    frequencies; both get the larger of the two tuples, which no other
    sector has.  Their weights are equal bit for bit: the horizontal
    components of -k are exactly -(a, b) (a linear solve), and the escape
    function reads only squares, norms and |e| of the frame components.
    """
    return max(sector.freqs, tuple((-k1, -k2) for k1, k2 in sector.freqs))


def reversal_key(sector):
    """`mirror_key` of a sector's time reversal: R = [[0, -1], [1, 0]] on
    its cell frequencies, in reverse cell order.

    R A^T R^-1 is the inverse of A, so for a symmetric A, R maps the
    A^T-orbit through k0 onto the one through R k0 with each position
    negated, and keeps norms: this is the key of the sector through R k0.
    For a non-symmetric A it is in general no sector's key."""
    freqs = tuple((-k2, k1) for k1, k2 in reversed(sector.freqs))
    return max(freqs, tuple((-k1, -k2) for k1, k2 in freqs))


def mirror_groups(sectors):
    """The sectors grouped by `mirror_key`, in order of first appearance:
    each k0, -k0 pair of orbit sectors together, the neutral sector alone."""
    groups = {}
    for sector in sectors:
        groups.setdefault(mirror_key(sector), []).append(sector)
    return list(groups.values())


# ---------------------------------------------------------------------------
# generator blocks
# ---------------------------------------------------------------------------

@dataclass
class SectorBlock:
    """One sector's generator matrix and its mode basis.

    basis is an int64 array of shape (dim, 2): row i holds the orbit
    position p (0 for the neutral sector) and the frequency j of mode i,
    laid out by `sector_basis`.
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


#: largest dimension of a dense block (441 on the default config); one complex
#: dense eig takes 2.8 s at 1,024 modes on one core of a 2-vCPU Xeon host
DENSE_DIM_CEILING = 1024


def _dense_dim(n):
    """Raise TruncationTooLarge for a dense block of dimension n above the ceiling."""
    if n > DENSE_DIM_CEILING:
        raise TruncationTooLarge(f"a dense block of dimension {n} is above {DENSE_DIM_CEILING}")


def sector_basis(sector, truncation: Truncation):
    """(p, j) modes of a sector: cell-major from the cell of largest p, with
    j ascending inside each cell.  The neutral sector is one cell at p = 0
    over |j| <= j_max + neutral_buffer(); an orbit cell spans |j| <= j_max."""
    if isinstance(sector, NeutralSector):      # only ever solved as one dense block
        j_max, ps = truncation.j_max + truncation.neutral_buffer(), np.zeros(1, dtype=np.int64)
        _dense_dim(2 * j_max + 1)
    else:
        j_max, ps = truncation.j_max, sector.p_hi - np.arange(sector.n_cells)
    js = np.arange(-j_max, j_max + 1)
    return np.column_stack([np.repeat(ps, js.size), np.tile(js, ps.size)])


def build_generator(flow: MappingTorusFlow, sector, truncation: Truncation) -> SectorBlock:
    """Matrix block of the generator -i c(tau) d/dtau for one sector."""
    basis = sector_basis(sector, truncation)
    if isinstance(sector, NeutralSector):
        js = basis[:, 1]
        n = js.size
        h = np.zeros((n, n), dtype=complex)
        degree = flow.time_change.degree
        for d in range(-degree, degree + 1):
            coef = flow.time_change.fourier_coefficient(d)
            if coef == 0:
                continue
            cols = np.arange(max(0, -d), min(n, n - d))
            h[cols + d, cols] += 2.0 * np.pi * js[cols] * coef
        return SectorBlock(sector, basis, h)

    cell = orbit_cell_block(flow, truncation)
    nj = 2 * truncation.j_max + 1
    ncell = sector.n_cells
    _dense_dim(ncell * nj)
    h = np.zeros((ncell * nj, ncell * nj), dtype=complex)
    hop_flux = (1j * truncation.flux_penalty / flow.period
                * np.ones((nj, nj), dtype=complex))
    for ell in range(ncell):
        sl = slice(ell * nj, (ell + 1) * nj)
        h[sl, sl] = cell
        if ell > 0:
            h[sl, slice((ell - 1) * nj, ell * nj)] = hop_flux
    return SectorBlock(sector, basis, h)


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
    _dense_dim(2 * truncation.j_max + 1)
    js = np.arange(-truncation.j_max, truncation.j_max + 1)
    block = np.diag(2.0 * np.pi / tbar * js).astype(complex)
    block -= 1j * truncation.flux_penalty / tbar * np.ones((js.size, js.size))
    return block


def _mode_adapted(flow: MappingTorusFlow, h, sectors):
    """Equivariant frame components of every mode covector (rep. tau = 0).

    sectors holds (sector, basis) pairs; the rows of their modes are
    stacked in order.  Mode (p, j) sits at the phase-space covector
    2 pi h ((A^T)^p k0, j), the frequency of its cell in sector.freqs
    ((0, 0) in the neutral sector).
    """
    k = np.concatenate([np.repeat(np.asarray(sector.freqs, dtype=float),
                                  len(basis) // len(sector.freqs), axis=0)
                        for sector, basis in sectors])
    js = np.concatenate([basis[:, 1] for _, basis in sectors])
    ab = cotangent.horizontal_components(flow, 2.0 * np.pi * h * k)
    c0 = float(flow.time_change(0.0))
    return np.column_stack([ab, c0 * (2.0 * np.pi * h * js)])


# ---------------------------------------------------------------------------
# weighted generator
# ---------------------------------------------------------------------------

def conjugate_by_diagonal(matrix, log_weight):
    """W M W^{-1} for W = diag(exp(log_weight)), in place.

    Scales entry (i, j) of the float or complex array `matrix` by
    exp(log_weight[i] - log_weight[j]), with one real n x n temporary for
    the ratios, and returns `matrix`; the diagonal is untouched.  Raises
    WeightOverflow when a scaled entry leaves the double range.
    """
    logw = np.asarray(log_weight, dtype=float)
    ratio = np.subtract.outer(logw, logw)
    with np.errstate(over="raise", invalid="raise"):
        try:
            matrix *= np.exp(ratio, out=ratio)
        except FloatingPointError as exc:
            raise WeightOverflow(f"a weighted entry leaves the double range: {exc}") from exc
    return matrix


#: modes per profile pass of `sector_log_weights`; a pass holds whole
#: sectors, so a sector with more modes gets a pass of its own
WEIGHT_ROWS = 4096


def sector_log_weights(escape: EscapeFunction, h, sectors, memo):
    """Log of the diagonal escape weight on each of `sectors`, run by run.

    sectors holds (sector, basis) pairs.  Runs of whole sectors with at
    most WEIGHT_ROWS modes in all share one profile pass, and each run
    yields the list of its sectors' log weights, one value per mode of each
    basis.  Only one run is evaluated at a time, so the storage follows
    WEIGHT_ROWS, not the sector count.  memo: see `_run_log_weights`.

    Raises WeightOverflow, naming h and the sector, when a weight or its
    inverse would leave the double range, or when a mode covector already
    overflows on the way.
    """
    run, rows = [], 0
    for item in sectors:
        if run and rows + len(item[1]) > WEIGHT_ROWS:
            yield _run_log_weights(escape, h, run, memo)
            run, rows = [], 0
        run.append(item)
        rows += len(item[1])
    if run:
        yield _run_log_weights(escape, h, run, memo)


def _named(run):
    """The sector or sectors of a run, their mode count and largest |j|."""
    bases = [basis for _, basis in run]
    names = run[0][0].key if len(run) == 1 else f"{run[0][0].key} to {run[-1][0].key}"
    return (f"sector {names} ({sum(map(len, bases))} modes, "
            f"|j| <= {max(int(np.abs(b[:, 1]).max()) for b in bases)})")


def _run_log_weights(escape, h, run, memo):
    """One profile pass for the sectors of a run, split per sector.

    The escape function reads a covector's frame components only through
    a^2, b^2, e^2, |xi| and |e|, and the e of mode (p, -j) is exactly minus
    that of (p, j), so the two weights are equal.  Only the modes with
    j >= 0 are evaluated; the j of an orbit cell and of the neutral sector
    run ascending and symmetric, so the mirror of a mode with j < 0 lies
    2|j| rows further on (ValueError for a basis laid out otherwise).

    memo (a dict, fresh when empty) maps each sign-canonical cell frequency
    k to the profiles (m1, m2) of its modes j = 0, 1, ... (NaN if not
    evaluated), homogeneous of degree 0 in the covector 2 pi h (k, c0 j).
    The pass covers the live modes memo lacks, in row order, and adds them:
    with a fresh memo and each cell once, that is escape_value's pass.
    """
    ps, js = np.concatenate([basis for _, basis in run]).T
    mirror = np.arange(len(js)) - 2 * np.minimum(js, 0)
    if mirror.max() >= len(js) or np.any(js[mirror] != np.abs(js)) or np.any(ps[mirror] != ps):
        raise ValueError("each cell's j must run ascending and symmetric")
    halves = [(sector, basis[basis[:, 1] >= 0]) for sector, basis in run]
    keys = [max(k, (-k[0], -k[1])) for sector, _ in halves for k in sector.freqs]
    widths = [len(basis) // len(sector.freqs) for sector, basis in halves for _ in sector.freqs]
    m12 = np.full((2, sum(widths)), np.nan)
    parts = np.split(m12, np.cumsum(widths)[:-1], axis=1)     # one view per cell
    for part, known in zip(parts, (memo.get(key, np.empty((2, 0))) for key in keys)):
        part[:, :known.shape[1]] = known[:, :part.shape[1]]

    def profiles(adapted, live, rates):
        need = live & np.isnan(m12[0])
        m12[:, need] = escape._profiles(adapted[need], rates)
        memo.update((key, part.copy()) for key, part in zip(keys, parts))
        return m12[:, live]

    try:
        with np.errstate(over="raise", invalid="raise"):
            adapted = _mode_adapted(escape.flow, h, halves)
            half = escape._order_and_escape(adapted, [escape.params], False, profiles)[1][0]
    except FloatingPointError as exc:
        if len(run) > 1:
            # the rows are independent: the sector's own call raises too
            for item in run:
                _run_log_weights(escape, h, [item], memo)
        raise WeightOverflow(
            f"escape weight at h = {h:g} overflows on {_named(run)}: {exc}; "
            "reduce h or the truncation") from exc
    logw = half[(np.cumsum(js >= 0) - 1)[mirror]]
    parts = np.split(logw, np.cumsum([len(basis) for _, basis in run])[:-1])
    for item, part in zip(run, parts):
        if np.any(np.abs(part) > 700.0):
            raise WeightOverflow(
                f"max |log weight| = {np.abs(part).max():.1f} exceeds 700 at h = {h:g} "
                f"on {_named([item])}; reduce |u|, s or the truncation")
    return parts


def mode_log_weight(sector, basis, escape: EscapeFunction, h):
    """Log of the diagonal escape weight, one value per mode of `basis`:
    `sector_log_weights` on this one sector, with a fresh memo."""
    return next(sector_log_weights(escape, h, [(sector, basis)], {}))[0]


def apply_weight(block: SectorBlock, escape: EscapeFunction, h: float) -> np.ndarray:
    """Conjugated block P = W H W^{-1} for the diagonal escape weight at h.

    Entries are scaled by weight ratios, P_ij = w_i H_ij / w_j, so the
    diagonal of P equals the diagonal of H exactly.  The h-rescaled
    operator, in the spectral variable z = h lambda, is h * P.
    """
    logw = mode_log_weight(block.sector, block.basis, escape, h)
    return conjugate_by_diagonal(block.matrix.copy(), logw)


def orbit_expectation(flow: MappingTorusFlow, truncation: Truncation, log_weight, rows,
                      starts, x, tau):
    """<v, W H W^{-1} v> on each orbit sector of a weight run, for packets
    with rank-one coefficients v[p, l, j] = x[p, l] tau[p, j]: shape
    (sectors, packets), without the coefficients or the matrix.

    x (packets, cells) holds the run's sectors one after another, cells
    ordered as in the sector basis, from the cells in starts; tau is
    (packets, 2 j_max + 1).  Row rows[l] of log_weight weighs cell l.  H is
    Lambda = diag(2 pi j / T) plus the flux -i kappa/T 11^T on each cell
    and i kappa/T 11^T one cell below.  W and Lambda are diagonal, so that
    term is weight free, |x_l|^2 sum_j |tau_j|^2 2 pi j / T.  The flux needs
    two sums per weighted cell, A_l = sum_j w_lj conj(tau_j) and B_l =
    sum_j tau_j / w_lj: i kappa/T sum_l conj(x_l) A_l (x_{l-1} B_{l-1} -
    x_l B_l), with no inflow into a sector's first cell.  The sums are
    einsum, not BLAS, so they do not depend on the BLAS thread count.
    """
    tbar = flow.period
    omega = 2.0 * np.pi / tbar * np.arange(-truncation.j_max, truncation.j_max + 1)
    w = np.exp(log_weight)
    a = np.einsum("lj,pj->pl", w, np.conj(tau))
    b = np.einsum("lj,pj->pl", 1.0 / w, tau)
    y_sum = np.conj(x) * a[:, rows]     # conj(sum_j W_l v_l): the weight is real
    u_sum = x * b[:, rows]              # sum_j W_l^{-1} v_l
    inflow = np.roll(u_sum, 1, axis=1)
    inflow[:, starts] = 0.0             # no inflow into a sector's first cell
    flux = np.add.reduceat(y_sum * (inflow - u_sum), starts, axis=1)
    diag = np.add.reduceat(np.abs(x) ** 2, starts, axis=1) * np.einsum(
        "pj,j->p", np.abs(tau) ** 2, omega)[:, None]
    return (diag + 1j * truncation.flux_penalty / tbar * flux).T


# ---------------------------------------------------------------------------
# dense solvers
# ---------------------------------------------------------------------------

@dataclass
class EigenPair:
    value: complex
    residual: float


def eigendecompose(p: np.ndarray):
    """Dense non-Hermitian eigendecomposition, sorted by descending Im.

    Returns EigenPair entries with relative residuals ||Pv - lv|| / ||P||.
    """
    p = np.asarray(p, dtype=complex)
    try:
        norm = np.linalg.norm(p, 2) if p.size else 0.0
        vals, vecs = np.linalg.eig(p)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"dense eigensolver failed: {exc}") from exc
    if not np.isfinite(norm):
        raise NonConvergence(f"matrix 2-norm {norm} is outside the double range")
    order = np.argsort(-vals.imag, kind="stable")
    out = []
    with np.errstate(over="ignore"):
        for idx in order:
            v = vecs[:, idx]
            r = p @ v - vals[idx] * v
            res = np.linalg.norm(r) / max(norm, 1e-300)
            if math.isinf(res):     # |r|**2 overflows: scale before squaring
                res = np.linalg.norm(r / norm)
            out.append(EigenPair(complex(vals[idx]), float(res)))
    return out


def eigenvalues(p: np.ndarray):
    """Eigenvalues of P alone, unsorted, for a caller that reads no
    eigenvector or residual.  A failed solve or a non-finite matrix or
    eigenvalue raises NonConvergence, as in `eigendecompose`."""
    try:
        vals = np.linalg.eigvals(np.asarray(p, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"dense eigensolver failed: {exc}") from exc
    if not np.isfinite(vals).all():
        raise NonConvergence("an eigenvalue is outside the double range")
    return vals


def singular_values(p: np.ndarray):
    """Ascending singular values of P; a caller that audits P - z_e shifts
    its own copy of P first.  A failed solve or a non-finite singular value
    (LAPACK returns NaN for a non-finite matrix) raises NonConvergence."""
    try:
        s = np.linalg.svd(np.asarray(p, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"dense SVD failed: {exc}") from exc
    if not np.isfinite(s).all():
        raise NonConvergence("a singular value is outside the double range")
    return np.sort(s)


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

#: midpoints of the `TauGrid` on which a `PacketProfile` samples its packet
PACKET_TAU_GRID = 4096


class TauGrid:
    """The tau grid, c(tau) on it and the first packet of each tau key."""

    def __init__(self, flow: MappingTorusFlow):
        self.flow = flow
        self.taus = (np.arange(PACKET_TAU_GRID) + 0.5) / PACKET_TAU_GRID
        self.dtau = 1.0 / PACKET_TAU_GRID
        self.c_vals = flow.time_change(self.taus)
        self.packets = {}

    def phase_table(self, j_max):
        """Rectified-time phases exp(-2 pi i j phi(tau) / T), |j| <= j_max,
        on the grid: shape (2 j_max + 1, PACKET_TAU_GRID).  Rows j >= 0 are
        computed in place and row -j is their conjugate: bit for bit the
        direct formula, as the phase of -j is exactly minus that of j, cos
        is even and sin is odd."""
        phi = self.flow.time_change.rectified(self.taus)
        table = np.empty((2 * j_max + 1, phi.size), dtype=complex)
        half = table[j_max:]
        np.multiply(-2j * np.pi, np.outer(np.arange(j_max + 1), phi), out=half)
        np.divide(half, self.flow.period, out=half)
        np.exp(half, out=half)
        np.conjugate(table[:j_max:-1], out=table[:j_max])
        return table


class PacketProfile:
    """Suspension-coordinate data for one Gaussian wave packet on a `TauGrid`.

    Packets on one grid with equal `tau_key` share the first one's g_tau,
    ref_norm2 and tau integrals (memoised by route and row count); keys
    compare by value, as xi_3 = +-0.0 differ only in zero signs no integral
    reads.  The torus part is each packet's own."""

    def __init__(self, grid: TauGrid, alpha_x, alpha_xi, h):
        self.ax = np.asarray(alpha_x, dtype=float)
        self.xi = np.asarray(alpha_xi, dtype=float)
        self.h = float(h)
        self.gamma = float(np.sqrt(1.0 + self.xi @ self.xi)) / self.h
        self.grid, self.taus = grid, grid.taus
        first = grid.packets.setdefault(self.tau_key(), self)
        if first is not self:
            self.g_tau, self.ref_norm2, self.tau_ints = first.g_tau, first.ref_norm2, first.tau_ints
            return
        dt = (self.taus - self.ax[2] + 0.5) % 1.0 - 0.5
        self.g_tau = np.exp(1j * self.xi[2] * dt / self.h - 0.5 * self.gamma * dt * dt)
        # continuum packet norm in the rectified measure (the packet lives
        # on nonzero-frequency sectors, which use that measure)
        self.ref_norm2 = (np.pi / self.gamma) * float(
            np.sum(np.abs(self.g_tau) ** 2 / grid.c_vals) * grid.dtau)
        self.tau_ints = {}

    def tau_key(self):
        return self.ax[2], self.xi[2], self.gamma, self.h

    def _tau_integrals(self, key, integrate):
        if key not in self.tau_ints:
            self.tau_ints[key] = integrate()
        return self.tau_ints[key]

    def orbit_tau_integrals(self, phases):
        """Rectified-time integral of each orbit mode against the packet,
        for a `TauGrid.phase_table` of its grid: one value per row."""
        grid = self.grid
        return self._tau_integrals(("orbit", len(phases)), lambda: (
            phases @ (self.g_tau / grid.c_vals)) * grid.dtau / np.sqrt(grid.flow.period))

    def project(self, flow, block):
        """Coefficient vector of the packet on the neutral sector block.  An
        orbit block raises ValueError: see `torus_overlaps`."""
        if not isinstance(block.sector, NeutralSector):
            raise ValueError(f"project takes the neutral block, not {block.key}")
        # midpoint sum of g_tau exp(-2 pi i j tau) over taus = (m + 1/2)/N,
        # i.e. exp(-i pi j / N) times the DFT of g_tau at j mod N
        js = block.basis[:, 1]
        n = self.taus.size
        tau_int = self._tau_integrals(("neutral", len(js)), lambda: (
            self.grid.dtau * np.exp(-1j * np.pi * js / n) * np.fft.fft(self.g_tau)[js % n]))
        return torus_overlaps([self], np.zeros((1, 2)))[0, 0] * tau_int


def torus_overlaps(profiles, freqs):
    """Closed-form torus overlaps of the packets with the rows of the (n, 2)
    freqs, one broadcast: (packets, n).  On an orbit sector a packet's
    coefficients are its cells' overlaps times its `orbit_tau_integrals`."""
    freqs = np.asarray(freqs, dtype=float)
    x0, xi_x = np.array([(p.ax[:2], p.xi[:2]) for p in profiles]).transpose(1, 0, 2)[:, :, None]
    h, gamma = np.array([(p.h, p.gamma) for p in profiles]).T[..., None]
    q = xi_x / h[..., None] - 2.0 * np.pi * freqs
    phase = np.exp(-2j * np.pi * np.sum(freqs * x0, axis=2))
    return (2.0 * np.pi / gamma) * phase * np.exp(-np.sum(q * q, axis=2) / (2.0 * gamma))


# ---------------------------------------------------------------------------
# appendix-level numeric checks
# ---------------------------------------------------------------------------

def quadratic_partition(radii, r0, r1):
    """Diagonal radial multipliers with chi0^2 + chi1^2 = 1 exactly."""
    s = smoothstep((np.asarray(radii) - r0) / (r1 - r0))
    return np.cos(0.5 * np.pi * s), np.sin(0.5 * np.pi * s)


def partition_ims_check(block: SectorBlock, escape: EscapeFunction, z,
                        h_list, trials, r0, r1, seed):
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
        a = apply_weight(block, escape, h)
        a *= h
        a.flat[::n + 1] -= complex(z)
        radii = np.linalg.norm(
            _mode_adapted(flow, h, [(block.sector, block.basis)]), axis=1)
        chi0, chi1 = quadratic_partition(radii, r0, r1)
        rng = np.random.default_rng(seed)
        vals = []
        for _ in range(trials):
            r_c = rng.uniform(r0, r1)
            with np.errstate(over="ignore"):    # an overflowing centre is clipped to the modes
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


def garding_upper_check(hp: np.ndarray, trials, seed):
    """Max over random vectors of Im <u, h P u> / ||u||^2.

    hp is the h-rescaled weighted block h P.  A sample that is not finite
    (an entry or a product outside the double range) raises NonConvergence.
    """
    rng = np.random.default_rng(seed)
    n = hp.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        samples = [float(np.vdot(u, hp @ u).imag / np.vdot(u, u).real) for u in
                   (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(trials))]
    if not all(map(math.isfinite, samples)):
        raise NonConvergence("a sample of Im <u, h P u> / |u|^2 is outside the double range")
    return max(samples, default=-np.inf)
