"""Verification campaigns over computed resonance spectra.

Spectra are extracted per sector inside a resolved frequency window: the
neutral sector from the dense solve of its (buffered) matrix, orbit
sectors from the shared cell block, whose spectrum is exact for the block
lower-bidiagonal sector matrices and carries algebraic multiplicity equal
to the cell count.  All campaign reductions iterate sectors in sorted key
order, so a fixed configuration reproduces byte-identical reports.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import charpoly, operator as op
from .errors import (MultiplicityMismatch, UnmatchedEntry, UnresolvedState,
                     UnresolvedWindow)
from .escape import EscapeFunction, OrderParams, verify_escape_estimates
from .model import MappingTorusFlow

LOG = logging.getLogger("catspec")


@dataclass(frozen=True)
class ResonanceEntry:
    value: complex
    multiplicity: int
    residual: float
    sector_key: str


@dataclass
class ResonanceSet:
    entries: list
    meta: dict = field(default_factory=dict)

    def values(self):
        return np.array([e.value for e in self.entries])

    def above(self, floor):
        return [e for e in self.entries if e.value.imag > floor]

    def total_multiplicity(self):
        return sum(e.multiplicity for e in self.entries)


def _cluster(entries, radius):
    """Merge entries closer than radius; multiplicities add up."""
    entries = sorted(entries, key=lambda e: (e.value.real, e.value.imag))
    out = []
    for e in entries:
        if out and abs(out[-1].value - e.value) <= radius:
            prev = out[-1]
            mult = prev.multiplicity + e.multiplicity
            val = (prev.value * prev.multiplicity + e.value * e.multiplicity) / mult
            out[-1] = ResonanceEntry(val, mult, max(prev.residual, e.residual),
                                     prev.sector_key)
        else:
            out.append(e)
    return out


def extract_resonances(flow: MappingTorusFlow, params: OrderParams,
                       truncation: op.Truncation, h=0.05,
                       include_orbit=True, residual_tol=1e-10,
                       cluster_radius=1e-7) -> ResonanceSet:
    """Windowed, clustered spectrum of the weighted generator.

    The report window keeps |Re| below the frequency the truncation
    resolves; orbit sectors get an extra edge guard because their
    truncation artifacts converge from the window edge inward.
    """
    escape = EscapeFunction(flow, params)
    omega = 2.0 * np.pi / flow.period
    win_neutral = omega * (truncation.j_max + 0.5)
    win_orbit = omega * (truncation.j_max - truncation.edge_guard + 0.5)

    entries = []
    dropped = 0
    neutral = op.build_generator(flow, op.NeutralSector(), truncation)
    for pair in op.eigendecompose(op.apply_weight(neutral, escape, h)):
        if abs(pair.value.real) > win_neutral:
            continue
        if pair.residual > residual_tol:
            dropped += 1
            continue
        entries.append(ResonanceEntry(pair.value, 1, pair.residual, "neutral"))

    n_sectors = 0
    if include_orbit:
        cell = op.orbit_cell_block(flow, truncation)
        cell_pairs = [p for p in op.eigendecompose(cell)
                      if abs(p.value.real) <= win_orbit and p.residual <= residual_tol]
        for sector in op.enumerate_orbits(flow.cat, truncation.k_max,
                                          truncation.p_max):
            n_sectors += 1
            for pair in cell_pairs:
                entries.append(ResonanceEntry(pair.value, sector.n_cells,
                                              pair.residual, sector.key))

    entries = _cluster(entries, cluster_radius)
    meta = {
        "h": h,
        "omega": omega,
        "window_neutral": win_neutral,
        "window_orbit": win_orbit,
        "truncation": truncation,
        "escape_params": params,
        "n_orbit_sectors": n_sectors,
        "dropped_residual": dropped,
        "cluster_radius": cluster_radius,
    }
    return ResonanceSet(entries, meta)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingBox:
    """Spectral box |Re - E*alpha| <= sqrt(alpha), Im > -beta.

    The real window is closed, the imaginary floor strict; E = 0 is the
    excluded degenerate case.
    """

    E: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.E == 0.0:
            raise ValueError("E = 0 is excluded")

    def contains(self, value):
        half = np.sqrt(self.alpha)
        return (abs(value.real - self.E * self.alpha) <= half
                and value.imag > -self.beta)


def count_in_box(res: ResonanceSet, box: CountingBox) -> int:
    return sum(e.multiplicity for e in res.entries if box.contains(e.value))


def fit_slope(x, y):
    """Least-squares slope of y against x, or None when x has fewer than
    two distinct values and no slope is defined."""
    x = np.asarray(x, dtype=float)
    if len(set(x.tolist())) < 2:        # np.unique would import numpy.ma (0.6 MB)
        return None
    return float(np.polyfit(x, np.asarray(y, dtype=float), 1)[0])


def fit_log_slope(alphas, counts):
    """Least-squares slope of log(N + 1) against log(alpha), or None."""
    return fit_slope(np.log(np.asarray(alphas, dtype=float)),
                     np.log(np.asarray(counts, dtype=float) + 1.0))


@dataclass
class ScalingStudy:
    alphas: list
    counts: list
    exponent: float      # None when every count is zero or alpha takes one value
    reference: float     # dimensional bound n - 1/2
    undefined: bool


def scaling_study(flow: MappingTorusFlow, params: OrderParams,
                  truncation: op.Truncation, E, alpha_grid, beta,
                  window_margin=4, residual_tol=1e-10,
                  cluster_radius=1e-7) -> ScalingStudy:
    """Box counts N(alpha) across the grid with truncation adapted per alpha.

    residual_tol and cluster_radius are passed on to extract_resonances.
    """
    omega = 2.0 * np.pi / flow.period
    counts = []
    for alpha in alpha_grid:
        top = abs(E) * alpha + np.sqrt(alpha)
        j_need = int(np.ceil(top / omega)) + window_margin
        tr = replace(truncation, j_max=max(truncation.j_max, j_need))
        if omega * (tr.j_max + 0.5) < top:
            raise UnresolvedWindow(
                f"resolved window {omega * (tr.j_max + 0.5):.3g} cannot cover {top:.3g}")
        res = extract_resonances(flow, params, tr, h=1.0 / alpha,
                                 residual_tol=residual_tol,
                                 cluster_radius=cluster_radius)
        counts.append(count_in_box(res, CountingBox(E, alpha, beta)))
    exponent = None if all(c == 0 for c in counts) else fit_log_slope(alpha_grid, counts)
    return ScalingStudy(list(alpha_grid), counts, exponent, 2.5, exponent is None)


def synthetic_lattice_counts(E, alpha_grid, beta=1.0):
    """Control model: integer lattice points of Z^3 counted by radius shell.

    N(alpha) = #{v in Z^3 : | |v| - E alpha | <= sqrt(alpha)}, the
    three-dimensional stand-in whose density exponent is 5/2.
    """
    counts = []
    for alpha in alpha_grid:
        r_hi = abs(E) * alpha + np.sqrt(alpha)
        r_lo = max(abs(E) * alpha - np.sqrt(alpha), 0.0)
        m = int(np.floor(r_hi))
        v1 = np.arange(-m, m + 1)
        v2 = np.arange(-m, m + 1)
        g1, g2 = np.meshgrid(v1, v2, indexing="ij")
        rem_hi = r_hi * r_hi - g1 * g1 - g2 * g2
        rem_lo = r_lo * r_lo - g1 * g1 - g2 * g2
        # integers v3 with v3^2 <= H: 2 floor(sqrt(H)) + 1; strictly below
        # L > 0: 2 ceil(sqrt(L)) - 1 (valid at perfect squares too)
        hi = np.where(rem_hi >= 0.0,
                      2.0 * np.floor(np.sqrt(np.clip(rem_hi, 0, None))) + 1.0, 0.0)
        lo = np.where(rem_lo > 0.0,
                      2.0 * np.ceil(np.sqrt(np.clip(rem_lo, 0, None))) - 1.0, 0.0)
        counts.append(int(np.sum(hi - lo)))
    exponent = fit_log_slope(alpha_grid, counts)
    return ScalingStudy(list(alpha_grid), counts, exponent, 2.5, exponent is None)


# ---------------------------------------------------------------------------
# spectral set comparisons
# ---------------------------------------------------------------------------

def min_cost_matching(cost):
    """Column matched to each row in a minimum-cost perfect matching of a
    square cost matrix.

    Shortest augmenting paths with dual potentials (Jonker-Volgenant, as
    laid out by Crouse, IEEE TAES 52 (2016) 1679), one row at a time.  Ties
    are broken as in scipy.optimize.linear_sum_assignment, so the two return
    the same matching on the same costs.
    """
    cost = np.asarray(cost, dtype=float)
    n = len(cost)
    if cost.shape != (n, n):
        raise ValueError(f"need a square cost matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix has non-finite entries")
    u, v = np.zeros(n), np.zeros(n)
    col4row, row4col, path = (np.full(n, -1) for _ in range(3))
    for cur in range(n):
        short = np.full(n, np.inf)      # shortest reduced path cost per column
        seen_rows, seen_cols = np.zeros(n, bool), np.zeros(n, bool)
        remaining = np.arange(n)[::-1]  # reversed: constant costs give the identity
        i, low, sink = cur, 0.0, -1
        while sink < 0:
            seen_rows[i] = True
            reduced = low + cost[i, remaining] - u[i] - v[remaining]
            better = reduced < short[remaining]
            path[remaining[better]] = i
            short[remaining[better]] = reduced[better]
            dist = short[remaining]
            low = dist.min()
            ties = np.flatnonzero(dist == low)
            free = ties[row4col[remaining[ties]] < 0]
            k = free[-1] if free.size else ties[0]   # prefer ending the path
            j = remaining[k]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[k] = remaining[-1]
            remaining = remaining[:-1]
        # dual update keeps every reduced cost >= 0 and the matched ones at 0
        u[cur] += low
        rows = np.flatnonzero(seen_rows)
        rows = rows[rows != cur]
        u[rows] += low - short[col4row[rows]]
        v[seen_cols] -= low - short[seen_cols]
        j = sink
        while True:                     # flip the path's matched edges
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


@dataclass
class MatchResult:
    max_distance: float
    pairs: list
    unmatched: list


def symmetry_check(res: ResonanceSet) -> MatchResult:
    """Optimal pairing of the spectrum with its reflection -conj(lambda)."""
    entries = res.entries
    if not entries:
        return MatchResult(0.0, [], [])
    vals = np.array([e.value for e in entries])
    mults = np.array([e.multiplicity for e in entries])
    target = -vals.conj()
    cost = np.abs(vals[:, None] - target[None, :])
    pairs, worst = [], 0.0
    for r, c in enumerate(min_cost_matching(cost)):
        if mults[r] != mults[c]:
            raise UnmatchedEntry(
                f"multiplicity mismatch under reflection: {vals[r]:.6g} (x{mults[r]}) "
                f"vs {vals[c]:.6g} (x{mults[c]})")
        d = float(cost[r, c])
        worst = max(worst, d)
        pairs.append((complex(vals[r]), complex(target[c]), d))
    return MatchResult(worst, pairs, [])


def intrinsic_check(res_a: ResonanceSet, res_b: ResonanceSet, floor,
                    cutoff=None) -> MatchResult:
    """Match two spectra above a common floor, multiplicities included."""
    a = res_a.above(floor)
    b = res_b.above(floor)
    if len(a) != len(b):
        raise MultiplicityMismatch(
            f"{len(a)} vs {len(b)} entries above floor {floor}")
    if not a:
        return MatchResult(0.0, [], [])
    va = np.array([e.value for e in a])
    vb = np.array([e.value for e in b])
    cost = np.abs(va[:, None] - vb[None, :])
    cols = min_cost_matching(cost)
    if cutoff is None:
        cutoff = max(1e-6, 1e4 * max(res_a.meta.get("cluster_radius", 1e-7),
                                     1e-7))
    pairs, unmatched, worst = [], [], 0.0
    for r, c in enumerate(cols):
        d = float(cost[r, c])
        if d > cutoff:
            unmatched.append((complex(va[r]), complex(vb[c]), d))
            continue
        if a[r].multiplicity != b[c].multiplicity:
            raise MultiplicityMismatch(
                f"matched values {va[r]:.6g} / {vb[c]:.6g} carry multiplicities "
                f"{a[r].multiplicity} vs {b[c].multiplicity}")
        worst = max(worst, d)
        pairs.append((complex(va[r]), complex(vb[c]), d))
    return MatchResult(worst, pairs, unmatched)


def upper_half_check(res: ResonanceSet) -> float:
    """Largest imaginary part over the reported spectrum."""
    if not res.entries:
        return float("-inf")
    return max(e.value.imag for e in res.entries)


# ---------------------------------------------------------------------------
# singular-value audits
# ---------------------------------------------------------------------------

@dataclass
class WeylAudit:
    verdict: bool
    worst_margin: float          # min over N of log-prefix slack


def weyl_audit(p: np.ndarray, z_e, eigenvalues=None,
               rel_slack=1e-10) -> WeylAudit:
    """Prefix products of singular values against eigenvalue distances.

    Checks prod_{j<=N} s_j <= prod_{j<=N} |lambda_j - z_e| for every N in
    log space (relative slack rel_slack).
    """
    p = np.asarray(p, dtype=complex)
    n = p.shape[0]
    s = op.singular_values(p, z_e)
    if eigenvalues is None:
        eigenvalues = [pair.value for pair in op.eigendecompose(p)]
    d = np.sort(np.abs(np.asarray(eigenvalues, dtype=complex) - complex(z_e)))
    if d.size != n:
        raise ValueError("need as many eigenvalues as the dimension")
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
        if margin < -rel_slack * max(1.0, abs(acc_d)):
            ok = False
    return WeylAudit(ok, float(worst))


def weyl_spectra(p: np.ndarray, z_e, dps=40):
    """Ascending singular values of ``p - z_e`` and distances ``|lambda - z_e|``
    at ``dps + 10`` digits, from exact characteristic polynomials.

    ``B = 2**e (p - z_e)`` is a Gaussian-integer matrix; the distances are
    ``|roots of det(x - B)| / 2**e`` and the squared singular values the
    roots of ``det(x - Bᴴ B) / 4**e`` (``catspec.charpoly``).  No LAPACK
    value enters.  Raises NonConvergence instead of returning inaccurate
    values.
    """
    import mpmath as mp

    re, im, e = charpoly.shifted_dyadic(p, z_e)
    eig = charpoly.roots(charpoly.berkowitz(re, im), dps)
    squares = charpoly.roots(charpoly.berkowitz(*charpoly.gram(re, im)), dps)
    with mp.workdps(dps + 10):
        dist = sorted(mp.ldexp(abs(r), -e) for r in eig)
        svals = sorted(mp.ldexp(mp.sqrt(abs(r)), -e) for r in squares)
    return svals, dist


def weyl_prefix_ok(svals, dist, dps=40):
    """Whether every ascending prefix product of ``svals`` is at most that of
    ``dist``, with relative slack ``10**(-dps + 10)``, at ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        slack = 1 + mp.mpf(10) ** (-dps + 10)
        acc_s = acc_d = mp.mpf(1)
        for s, d in zip(svals, dist):
            acc_s *= s
            acc_d *= d
            if acc_s > acc_d * slack:
                return False
        return True


def weyl_oracle(p: np.ndarray, z_e, dps=40):
    """High-precision check of the prefix-product inequality on the spectra
    of ``weyl_spectra``: the right verdict, or NonConvergence."""
    return weyl_prefix_ok(*weyl_spectra(p, z_e, dps), dps)


@dataclass
class DiskBoxCheck:
    ok: bool
    precondition_ok: bool
    n_in_box: int
    radius: float


def disk_box_check(res: ResonanceSet, E, beta, b, h) -> DiskBoxCheck:
    """Inclusion of the rescaled spectral box in the disk around E + i.

    Entries are rescaled by h; the box is |Re z - E| <= sqrt(beta h),
    Im z >= -beta h; the disk has center E + i and radius 1 + b h.  The
    hypothesis requires b > 2 beta.
    """
    pre = b > 2.0 * beta
    center = complex(E, 1.0)
    radius = 1.0 + b * h
    half = np.sqrt(beta * h)
    n_in = 0
    ok = True
    for e in res.entries:
        z = e.value * h
        if abs(z.real - E) <= half and z.imag >= -beta * h:
            n_in += 1
            if abs(z - center) > radius:
                ok = False
    return DiskBoxCheck(ok and pre, pre, n_in, radius)


# ---------------------------------------------------------------------------
# coherent-state symbol study
# ---------------------------------------------------------------------------

@dataclass
class CoherentStudy:
    points: list
    h_list: list
    errors: list        # per point: {h: |<P> - two-term symbol|}
    powers: list        # per point: fitted h-power of the error, or None
    undefined: bool     # h takes fewer than two values: no power is defined


def default_symbol_points(flow: MappingTorusFlow, tau0=0.5):
    """Ten phase points away from the trapped set.

    Points sit on (or near) the hyperbolic coframe axes, where the escape
    derivative is uniform along the orbit and the two-term symbol
    comparison is clean.
    """
    cu = np.array([flow.cat.coframe_u[0], flow.cat.coframe_u[1], 0.0])
    cs = np.array([flow.cat.coframe_s[0], flow.cat.coframe_s[1], 0.0])
    eta = np.array([0.0, 0.0, 1.0])
    pts = []
    for r in (1.3, 1.9):
        for sign in (1.0, -1.0):
            pts.append(sign * r * cu)
            pts.append(sign * r * cs)
    pts.append(1.5 * cu + 0.35 * eta)
    pts.append(1.5 * cs - 0.35 * eta)
    x0 = (0.5, 0.5, tau0)
    return [(x0, tuple(p)) for p in pts]


#: largest `coherent_k_max` a config may ask for (35 at the default's
#: smallest h, 0.0125); the study's work grows like its square times
#: `coherent_j_max`, and at the smallest h accepted (about 0.00366, j_max
#: 27) it takes about 7.5 s and 110 MB
COHERENT_K_CEILING = 100

#: smallest `coherent_j_max`; it is the cutoff at every h >= 0.0125
COHERENT_J_FLOOR = 12


def coherent_k_max(points, h):
    """Frequency cutoff of the truncation the coherent study uses at h: the
    packets' centre frequency plus four widths, and a margin of 2."""
    r_max = max(np.linalg.norm(np.asarray(xi)[:2]) for _, xi in points)
    spread = 4.0 * np.sqrt((1.0 + r_max ** 2) ** 0.5 / h) / (2.0 * np.pi)
    return int(np.ceil(r_max / (2.0 * np.pi * h) + spread)) + 2


def coherent_j_max(flow: MappingTorusFlow, points, h):
    """Orbit-mode cutoff |j| of the coherent study at h, at least
    COHERENT_J_FLOOR: each packet's tau frequency plus four widths, and a
    margin of 2.  At the packet's tau0, mode j oscillates at 2 pi j / (T
    c(tau0)), the packet at xi_3 / h with width sqrt(|xi|_h) / sqrt(h),
    |xi|_h = sqrt(1 + |xi|^2)."""
    need = 0.0
    for (_, _, tau0), xi in points:
        xi = np.asarray(xi, dtype=float)
        scale = flow.period * float(flow.time_change(tau0)) / (2.0 * np.pi)
        width = np.sqrt((1.0 + xi @ xi) ** 0.5 / h)
        need = max(need, scale * (abs(xi[2]) / h + 4.0 * width))
    return max(COHERENT_J_FLOOR, int(np.ceil(need)) + 2)


def coherent_symbol_study(flow: MappingTorusFlow, params: OrderParams,
                          points, h_list, j_max=None, p_max=2,
                          mass_tol=0.02) -> CoherentStudy:
    """Error of packet expectations against the two-term symbol, per h, on
    `coherent_k_max` and (unless ``j_max`` is given) `coherent_j_max`.

    Each h takes a few batched passes.  The packets share one
    rectified-time phase table, dropped once their mode integrals are
    taken.  Orbit sectors are never built.  Their weights come from
    `operator.sector_log_weights`, one escape_value call per run of whole
    sectors, with the neutral sector's weight in the last run.  The
    sectors through k0 and -k0 share one weight (`operator.mirror_key`).
    Sharing is exact: the two weights are equal bit for bit, as the escape
    function reads only squares, norms and |e| of the frame components,
    and those of -k are exactly -(a, b) and e.  Per run, each packet's
    overlaps with all the run's cells are one call; a sector's coefficients
    are a slice of them times the packet's mode integrals, and
    `operator.orbit_expectation` sums the weighted expectation cell by cell
    in O(n) per sector.  The sector terms are added up in sector order.
    """
    from . import cotangent
    from .model import BasePoint

    escape = EscapeFunction(flow, params)
    preds = []
    for ax, xi in points:
        q = cotangent.CotangentPoint(BasePoint((ax[0], ax[1]), ax[2]),
                                     (xi[0], xi[1]), xi[2])
        preds.append(cotangent.h0(flow, q) + 1j * escape.escape_derivative(q))

    errors = [dict() for _ in points]
    for h in h_list:
        k_max = coherent_k_max(points, h)
        j_cut = coherent_j_max(flow, points, h) if j_max is None else j_max
        tr = op.Truncation(k_max=k_max, p_max=p_max, j_max=j_cut)
        profiles = [op.PacketProfile(flow, ax, xi, h) for ax, xi in points]
        phases = profiles[0].phase_table(j_cut)
        tau_ints = np.stack([prof.orbit_tau_integrals(phases) for prof in profiles])
        del phases
        neutral = op.build_generator(flow, op.NeutralSector(), tr)
        vecs = [prof.project(flow, neutral) for prof in profiles]

        sectors = op.enumerate_orbits(flow.cat, k_max, p_max)
        freqs = [op.sector_frequencies(flow.cat, sector) for sector in sectors]
        shared = {}                     # mirror key -> its sectors' indices
        for i, f in enumerate(freqs):
            shared.setdefault(op.mirror_key(f), []).append(i)
        groups = list(shared.values())
        weighed = [(sectors[g[0]], op.orbit_basis(sectors[g[0]], j_cut), freqs[g[0]])
                   for g in groups] + [(neutral.sector, neutral.basis, None)]
        owners = iter(groups + [None])  # None: the neutral sector
        terms = np.empty((len(sectors), len(points)), dtype=complex)
        masses = np.empty((len(sectors), len(points)))
        for logws in op.sector_log_weights(flow, escape, h, weighed):
            run = [(next(owners), logw) for logw in logws]
            members = [i for g, _ in run if g is not None for i in g]
            cells = np.reshape([k for i in members for k in freqs[i]], (-1, 2))
            x_ints = np.stack([prof.torus_overlaps(cells) for prof in profiles])
            start = 0
            for g, logw in run:
                if g is None:
                    mat = h * op.conjugate_by_diagonal(neutral.matrix, logw)
                    continue
                for i in g:
                    n = sectors[i].n_cells
                    coeffs = x_ints[:, start:start + n, None] * tau_ints[:, None, :]
                    start += n
                    terms[i] = h * op.orbit_expectation(flow, tr, logw.reshape(n, -1),
                                                        coeffs)
                    masses[i] = np.sum(np.abs(coeffs) ** 2, axis=(1, 2))

        acc = np.array([np.vdot(v, mat @ v) for v in vecs])
        norms = np.array([float(np.vdot(v, v).real) for v in vecs])
        for term, mass in zip(terms, masses):
            acc += term
            norms += mass
        for i, prof in enumerate(profiles):
            if norms[i] < (1.0 - mass_tol) * prof.ref_norm2:
                raise UnresolvedState(
                    f"point {i}: captured mass {norms[i] / prof.ref_norm2:.4f} at h={h}")
            expv = acc[i] / norms[i]
            pred = preds[i].real + 1j * h * preds[i].imag
            errors[i][float(h)] = float(abs(expv - pred))

    logh = np.log(np.asarray(h_list, dtype=float))
    powers = [fit_slope(logh, np.log([err[float(h)] for h in h_list])) for err in errors]
    return CoherentStudy(list(points), list(h_list), errors, powers, None in powers)


# ---------------------------------------------------------------------------
# campaign orchestration
# ---------------------------------------------------------------------------

@dataclass
class CampaignContext:
    """What two or more campaign checks share, each built on first use."""

    flow: MappingTorusFlow
    cfg: object                      # config.RunConfig

    @cached_property
    def escape(self):
        return EscapeFunction(self.flow, self.cfg.escape)

    def spectrum(self, params, truncation):
        cfg = self.cfg
        return extract_resonances(self.flow, params, truncation, h=cfg.h,
                                  residual_tol=cfg.residual_tol,
                                  cluster_radius=cfg.cluster_radius)

    @cached_property
    def base(self):
        return self.spectrum(self.cfg.escape, self.cfg.truncation)


def _check_escape(ctx):
    """Escape estimates plus the exponent-doubling control: u and s doubled,
    on the same samples and profile passes, give twice the decay bound within
    10%.  With ``n0 = 0`` (the default) that holds by construction: each term
    of the doubled order, ``2s + (-2s) m1 + 2u m2``, is exactly twice the
    primary's, so ``doubling_ratio`` is 2.0 exactly; a nonzero ``n0``, which
    the doubling keeps, makes it empirical (2.124 at ``n0 = 1``)."""
    cfg = ctx.cfg
    doubled = replace(cfg.escape, u=2.0 * cfg.escape.u, s=2.0 * cfg.escape.s)
    rep, rep2 = verify_escape_estimates(ctx.escape, sample_count=cfg.escape_samples,
                                        seed=cfg.seed, keep_rows=0,
                                        orders=[cfg.escape, doubled])
    ratio = rep2.decay_bound / rep.decay_bound
    ok = (rep.violations == 0 and rep2.violations == 0
          and rep.c_measured > 0.0 and 1.8 <= ratio <= 2.2)
    return ok, {"c_measured": rep.c_measured,
                "decay_bound": rep.decay_bound,
                "max_everywhere": rep.max_everywhere,
                "violations": rep.violations,
                "doubling_ratio": ratio}


# A check that compared nothing fails: an empty spectrum, no matched pair
# or an empty box would otherwise pass vacuously.

def _check_upper_half(ctx):
    top = upper_half_check(ctx.base)
    ok = bool(ctx.base.entries) and top <= 1e-6
    return ok, {"max_im": top,
                "entries": len(ctx.base.entries),
                "total_multiplicity": ctx.base.total_multiplicity()}


def _check_symmetry(ctx):
    sym = symmetry_check(ctx.base)
    ok = bool(sym.pairs) and sym.max_distance < 1e-6
    return ok, {"max_distance": sym.max_distance, "pairs": len(sym.pairs)}


def _check_intrinsic(ctx):
    cfg = ctx.cfg
    grown = replace(cfg.truncation, k_max=cfg.truncation.k_max + 4,
                    p_max=cfg.truncation.p_max + 2)
    cross = intrinsic_check(ctx.base, ctx.spectrum(cfg.escape_alt, cfg.truncation),
                            cfg.floor)
    drift = intrinsic_check(ctx.base, ctx.spectrum(cfg.escape, grown), cfg.floor)
    ok = (bool(cross.pairs) and bool(drift.pairs)
          and cross.max_distance < 1e-4 and not cross.unmatched
          and drift.max_distance < 1e-4)
    return ok, {"cross_distance": cross.max_distance,
                "cross_pairs": len(cross.pairs),
                "cross_unmatched": len(cross.unmatched),
                "drift": drift.max_distance,
                "drift_pairs": len(drift.pairs),
                "floor": cfg.floor}


def weyl_random_matrices(seed):
    """The weyl check's 20 complex Gaussian 12x12 matrices for campaign ``seed``."""
    rng = np.random.default_rng(seed + 1)
    return [rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            for _ in range(20)]


def _check_weyl(ctx):
    """Weyl audits of every sector of dimension <= 500, plus 20 random
    matrices audited in float64 and cross-checked by ``weyl_oracle`` at 40
    digits from exact characteristic polynomials; no audited sector is a
    failure.  Without mpmath the oracle is reported as null, not as passed.

    The orbit sectors through k0 and -k0 are audited once
    (``operator.mirror_key``) and each keeps its own record.  This is
    exact, not an approximation: the two generator blocks and eigenvalue
    lists depend on the cell count alone and the two weights are equal bit
    for bit, so the weighted matrices and their audits are identical."""
    cfg, flow = ctx.cfg, ctx.flow
    z_e = complex(cfg.E, 1.0)
    cell = op.orbit_cell_block(flow, cfg.truncation)
    cell_vals = np.array([p.value for p in op.eigendecompose(cell)])
    sectors = [op.NeutralSector()] + op.enumerate_orbits(
        flow.cat, cfg.truncation.k_max, cfg.truncation.p_max)

    def audit_one(sector):
        block = op.build_generator(flow, sector, cfg.truncation)
        if block.dim > 500:
            return None
        if isinstance(sector, op.NeutralSector):
            evs = None
        else:
            evs = np.concatenate([cell_vals] * sector.n_cells) * cfg.h
        return weyl_audit(cfg.h * op.apply_weight(block, ctx.escape, cfg.h), z_e,
                          eigenvalues=evs)

    shared = {}
    audits = []
    for sector in sectors:
        key = (sector.key if isinstance(sector, op.NeutralSector)
               else op.mirror_key(op.sector_frequencies(flow.cat, sector)))
        if key not in shared:
            shared[key] = audit_one(sector)
        if shared[key] is not None:
            audits.append({"sector": sector.key,
                           "worst_margin": shared[key].worst_margin,
                           "ok": shared[key].verdict})
    audits.sort(key=lambda a: a["sector"])
    randoms = weyl_random_matrices(cfg.seed)
    random_ok = all(weyl_audit(m, z_e).verdict for m in randoms)
    try:
        oracle_ok = all(weyl_oracle(m, z_e) for m in randoms)
    except ImportError:              # no mpmath: the cross-check did not run
        oracle_ok = None
    ok = (bool(audits) and all(a["ok"] for a in audits) and random_ok
          and oracle_ok is not False)
    return ok, {"sectors_audited": len(audits),
                "worst_margin": min((a["worst_margin"] for a in audits),
                                    default=None),
                "random_oracle_ok": None if oracle_ok is None
                else random_ok and oracle_ok}


def _check_ims(ctx):
    cfg = ctx.cfg
    tr = replace(cfg.truncation, j_max=cfg.ims_j_max, j_buffer=16)
    block = op.build_generator(ctx.flow, op.NeutralSector(), tr)
    h_list = [0.1, 0.05, 0.025, 0.0125]
    res = op.partition_ims_check(block, ctx.escape, complex(cfg.E, 1.0),
                                 h_list, trials=20, r0=cfg.ims_band[0],
                                 r1=cfg.ims_band[1], seed=cfg.seed)
    ratios = [res[h_list[i]] / res[h_list[i + 1]] for i in range(3)]
    return all(3.0 <= r <= 5.0 for r in ratios), {
        "residuals": {str(k): v for k, v in res.items()}, "ratios": ratios}


def _check_garding(ctx):
    cfg, flow = ctx.cfg, ctx.flow
    k0 = cfg.truncation.k_max
    sweep = {}
    for k in (k0, k0 + 2, k0 + 4):
        tr = replace(cfg.truncation, k_max=k)
        sector = op.enumerate_orbits(flow.cat, k, tr.p_max)[0]
        hp = cfg.h * op.apply_weight(op.build_generator(flow, sector, tr),
                                     ctx.escape, cfg.h)
        sweep[k] = op.garding_upper_check(hp, trials=200, seed=cfg.seed)
        if k == k0:
            g0 = op.garding_upper_check(hp, trials=50, seed=cfg.seed)
            g_shift = op.garding_upper_check(hp, trials=50, seed=cfg.seed,
                                             shift=0.7)
    defect = abs(g_shift - (g0 - 0.7))
    return max(sweep.values()) <= 1.0 and defect < 1e-10, {
        "sweep": {str(k): v for k, v in sweep.items()}, "shift_defect": defect}


def _check_coherent(ctx):
    study = coherent_symbol_study(ctx.flow, ctx.cfg.escape,
                                  default_symbol_points(ctx.flow),
                                  ctx.cfg.coherent_h_list)
    # from a single h there is no power to bound: that fails
    return not study.undefined and min(study.powers) >= 0.5, {
        "powers": study.powers,
        "errors": [{str(k): v for k, v in e.items()} for e in study.errors]}


def _check_counting(ctx):
    cfg = ctx.cfg
    study = scaling_study(ctx.flow, cfg.escape, cfg.truncation, cfg.E,
                          cfg.alpha_grid, cfg.beta, residual_tol=cfg.residual_tol,
                          cluster_radius=cfg.cluster_radius)
    control = synthetic_lattice_counts(cfg.E, cfg.alpha_grid, cfg.beta)
    # with every count zero or a single alpha there is no exponent to
    # bound: that fails
    ok = (not study.undefined and study.exponent <= 3.0
          and not control.undefined and abs(control.exponent - 2.5) <= 0.1)
    return ok, {"table": list(zip(study.alphas, study.counts)),
                "exponent": study.exponent,
                "undefined": study.undefined,
                "control_counts": control.counts,
                "control_exponent": control.exponent,
                "reference": study.reference}


def _check_disk(ctx):
    cfg = ctx.cfg
    dc = disk_box_check(ctx.base, cfg.E, cfg.beta, cfg.disk_b, cfg.h)
    ok = dc.ok and dc.n_in_box > 0
    return ok, {"ok": dc.ok, "precondition_ok": dc.precondition_ok,
                "n_in_box": dc.n_in_box, "radius": dc.radius}


# The campaign checks in run order: name -> check(ctx) -> (verdict, payload).
CHECKS = {
    "escape": _check_escape,
    "upper_half": _check_upper_half,
    "symmetry": _check_symmetry,
    "intrinsic": _check_intrinsic,
    "weyl": _check_weyl,
    "ims": _check_ims,
    "garding": _check_garding,
    "coherent": _check_coherent,
    "counting": _check_counting,
    "disk": _check_disk,
}


def run_campaign(flow: MappingTorusFlow, cfg, progress=None):
    """Run the configured checks and return a JSON-able report.

    A check that raises gets verdict False and an "error" payload instead
    of aborting the run; its traceback goes to the "catspec" logger.
    """
    ctx = CampaignContext(flow, cfg)
    checks = {}
    verdicts = {}
    for name, check in CHECKS.items():
        if name not in cfg.checks:
            continue
        if progress:
            progress(name)
        try:
            verdicts[name], checks[name] = check(ctx)
        except Exception as exc:  # noqa: BLE001 - verdicts must not abort the run
            LOG.exception("check %s raised", name)
            verdicts[name] = False
            checks[name] = {"error": f"{type(exc).__name__}: {exc}"}

    report = {
        "schema_version": 1,
        "model": {
            "matrix": [[int(v) for v in row] for row in flow.cat.matrix],
            "lambda_u": flow.cat.lambda_u,
            "return_time": flow.period,
            "theta": flow.theta,
        },
        "config_echo": {
            "escape": vars(cfg.escape).copy(),
            "escape_alt": vars(cfg.escape_alt).copy(),
            "truncation": vars(cfg.truncation).copy(),
            "checks": list(cfg.checks),
            "E": cfg.E, "beta": cfg.beta, "disk_b": cfg.disk_b,
            "alpha_grid": list(cfg.alpha_grid), "floor": cfg.floor,
            "h": cfg.h, "seed": cfg.seed,
        },
        "checks": checks,
        "verdicts": verdicts,
        "passed": all(verdicts.values()),
    }
    return report
