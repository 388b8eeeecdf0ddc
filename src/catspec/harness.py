"""Verification campaigns over computed resonance spectra.

Spectra are extracted inside a resolved frequency window: the neutral
sector from the dense solve of its (buffered) matrix, the orbit sectors
from the shared cell block, whose spectrum is exact for the block
lower-bidiagonal sector matrices: one entry per cell eigenvalue, with
algebraic multiplicity the total cell count.  All campaign reductions
iterate sectors in sorted key order, so a fixed configuration reproduces
byte-identical reports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from . import charpoly, operator as op
from .errors import MultiplicityMismatch, NonConvergence, UnresolvedState
from .escape import EscapeFunction, verify_escape_estimates
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
    meta: dict

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


class SolveStore:
    """The dense eigenproblems and orbit enumerations of one flow, each
    solved on first use and at most once: a failed solve is remembered and
    re-raised.

    Each entry is keyed by exactly what determines its matrix: the orbit
    cell block by (j_max, flux_penalty), the weighted neutral block W H W^{-1}
    by its mode count and the bytes of its log weight, the orbit
    enumeration by (k_max, p_max).  At n0 = 0 the neutral log weight is
    exactly 0 at every h, so spectra at different h share one neutral
    solve.  Callers must not change the lists they are given.
    """

    def __init__(self, flow: MappingTorusFlow):
        self.flow = flow
        self.solved = {}

    def _once(self, key, solve):
        if key not in self.solved:
            try:
                self.solved[key] = solve()
            except Exception as exc:  # noqa: BLE001 - re-raised on every read
                self.solved[key] = exc
        out = self.solved[key]
        if isinstance(out, Exception):
            raise out
        return out

    def orbits(self, k_max, p_max):
        """`operator.enumerate_orbits` on the flow's cat map."""
        return self._once(("orbits", k_max, p_max),
                          lambda: op.enumerate_orbits(self.flow.cat, k_max, p_max))

    def cell_pairs(self, truncation: op.Truncation):
        """Eigenpairs of `operator.orbit_cell_block`."""
        return self._once(("cell", truncation.j_max, truncation.flux_penalty),
                          lambda: op.eigendecompose(op.orbit_cell_block(self.flow, truncation)))

    def neutral_pairs(self, escape: EscapeFunction, truncation: op.Truncation, h):
        """Eigenpairs of the neutral block weighted by ``escape`` at h; the
        weight is evaluated on every call, the block built and solved on a
        miss only."""
        if escape.flow is not self.flow:
            raise ValueError("the escape function is on another flow than the store")
        sector = op.NeutralSector()
        basis = op.sector_basis(sector, truncation)
        logw = op.mode_log_weight(sector, basis, escape, h)

        def solve():
            block = op.build_generator(self.flow, sector, truncation)
            return op.eigendecompose(op.conjugate_by_diagonal(block.matrix, logw))

        return self._once(("neutral", len(basis), logw.tobytes()), solve)


def extract_resonances(solves: SolveStore, escape: EscapeFunction, truncation: op.Truncation,
                       h, residual_tol, cluster_radius) -> ResonanceSet:
    """Windowed, clustered spectrum of the generator of ``solves.flow``,
    weighted by ``escape``, from the eigenproblems of ``solves``.

    The report window keeps |Re| below the frequency the truncation
    resolves; orbit sectors get an extra edge guard because their
    truncation artifacts converge from the window edge inward.
    """
    omega = 2.0 * np.pi / solves.flow.period
    win_neutral = omega * (truncation.j_max + 0.5)
    win_orbit = omega * (truncation.j_max - truncation.edge_guard + 0.5)

    in_window = [ResonanceEntry(pair.value, 1, pair.residual, "neutral")
                 for pair in solves.neutral_pairs(escape, truncation, h)
                 if abs(pair.value.real) <= win_neutral]
    cells = sum(s.n_cells for s in solves.orbits(truncation.k_max, truncation.p_max))
    in_window += [ResonanceEntry(pair.value, cells, pair.residual, "orbit")
                  for pair in solves.cell_pairs(truncation)
                  if abs(pair.value.real) <= win_orbit]
    entries = [e for e in in_window if e.residual <= residual_tol]
    # dropped eigenvalues count with their multiplicity
    dropped = sum(e.multiplicity for e in in_window) - sum(e.multiplicity for e in entries)

    return ResonanceSet(_cluster(entries, cluster_radius),
                        {"dropped_residual": dropped, "cluster_radius": cluster_radius})


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingBox:
    """Spectral box |Re - E*alpha| <= sqrt(alpha), Im > -beta, for alpha > 0 and E != 0.

    The real window is closed, the imaginary floor strict.
    """

    E: float
    alpha: float
    beta: float

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


#: tau modes that `scaling_study` keeps past the top of the counting box
COUNT_WINDOW_MARGIN = 4


def scaling_study(solves: SolveStore, escape: EscapeFunction, truncation: op.Truncation, E,
                  alpha_grid, beta, residual_tol, cluster_radius) -> ScalingStudy:
    """Box counts N(alpha) across the grid with truncation adapted per alpha.

    The tau modes reach COUNT_WINDOW_MARGIN past the box top, so the
    resolved window omega (j_max + 1/2) covers it.  solves, residual_tol
    and cluster_radius are passed on to extract_resonances, so the alphas
    of one truncation share its cell solve and its orbit enumeration.
    """
    omega = 2.0 * np.pi / solves.flow.period
    counts = []
    for alpha in alpha_grid:
        top = abs(E) * alpha + np.sqrt(alpha)
        j_need = int(np.ceil(top / omega)) + COUNT_WINDOW_MARGIN
        tr = replace(truncation, j_max=max(truncation.j_max, j_need))
        res = extract_resonances(solves, escape, tr, 1.0 / alpha, residual_tol, cluster_radius)
        counts.append(count_in_box(res, CountingBox(E, alpha, beta)))
    exponent = None if all(c == 0 for c in counts) else fit_log_slope(alpha_grid, counts)
    return ScalingStudy(list(alpha_grid), counts, exponent, 2.5, exponent is None)


#: rows v1 of the (v1, v2) square that `synthetic_lattice_counts` counts at once
LATTICE_ROWS = 4


def synthetic_lattice_counts(E, alpha_grid):
    """Control model: integer lattice points of Z^3 counted by radius shell.

    N(alpha) = #{v in Z^3 : | |v| - E alpha | <= sqrt(alpha)}, the
    three-dimensional stand-in whose density exponent is 5/2.  The count
    runs over the rows v1 >= 0 of the (v1, v2) square, LATTICE_ROWS at a
    time, and doubles the rows v1 > 0, so it needs O(alpha) memory.
    """
    counts = []
    for alpha in alpha_grid:
        r_hi = abs(E) * alpha + np.sqrt(alpha)
        r_lo = max(abs(E) * alpha - np.sqrt(alpha), 0.0)
        m = int(np.floor(r_hi))
        v2 = np.arange(-m, m + 1)
        sq2 = v2 * v2
        total = 0
        for start in range(0, m + 1, LATTICE_ROWS):
            v1 = np.arange(start, min(start + LATTICE_ROWS, m + 1))[:, None]
            rem_hi = r_hi * r_hi - v1 * v1 - sq2
            rem_lo = r_lo * r_lo - v1 * v1 - sq2
            # integers v3 with v3^2 <= H: 2 floor(sqrt(H)) + 1; strictly below
            # L > 0: 2 ceil(sqrt(L)) - 1 (valid at perfect squares too)
            hi = np.where(rem_hi >= 0.0,
                          2.0 * np.floor(np.sqrt(np.maximum(rem_hi, 0.0))) + 1.0, 0.0)
            lo = np.where(rem_lo > 0.0,
                          2.0 * np.ceil(np.sqrt(np.maximum(rem_lo, 0.0))) - 1.0, 0.0)
            rows = np.sum(hi - lo, axis=1)
            total += 2 * int(rows.sum()) - (int(rows[0]) if start == 0 else 0)
        counts.append(total)
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


def _match(a, b, cutoff):
    """Optimal pairing of the entries a with as many entries b: a pair
    farther apart than cutoff, or with unequal multiplicities, is
    unmatched."""
    cost = np.abs(np.array([e.value for e in a])[:, None] - np.array([e.value for e in b]))
    pairs, unmatched = [], []
    for r, c in enumerate(min_cost_matching(cost)):
        pair = (complex(a[r].value), complex(b[c].value), float(cost[r, c]))
        matched = pair[2] <= cutoff and a[r].multiplicity == b[c].multiplicity
        (pairs if matched else unmatched).append(pair)
    return MatchResult(max((d for *_, d in pairs), default=0.0), pairs, unmatched)


def symmetry_check(res: ResonanceSet) -> MatchResult:
    """`_match` of the spectrum with its reflection -conj(lambda), with no
    distance cutoff."""
    mirror = [replace(e, value=-e.value.conjugate()) for e in res.entries]
    return _match(res.entries, mirror, math.inf)


def intrinsic_check(res_a: ResonanceSet, res_b: ResonanceSet, floor) -> MatchResult:
    """`_match` of two spectra above a common floor, with the cutoff
    1e4 max(cluster_radius, 1e-7).  Unequal entry counts raise
    MultiplicityMismatch."""
    a, b = res_a.above(floor), res_b.above(floor)
    if len(a) != len(b):
        raise MultiplicityMismatch(f"{len(a)} vs {len(b)} entries above floor {floor}")
    return _match(a, b, 1e4 * max(res_a.meta["cluster_radius"], 1e-7))


def upper_half_check(res: ResonanceSet) -> float:
    """Largest imaginary part over the reported spectrum."""
    return max((e.value.imag for e in res.entries), default=float("-inf"))


# ---------------------------------------------------------------------------
# singular-value audits
# ---------------------------------------------------------------------------

@dataclass
class WeylAudit:
    verdict: bool
    worst_margin: float          # min over N of log-prefix slack


#: relative slack of the float64 Weyl prefix comparison, in log space
WEYL_REL_SLACK = 1e-10
#: digits of the Weyl oracle: roots placed to 10**-(WEYL_DPS + 5) relative,
#: prefix products compared with relative slack 10**(-WEYL_DPS + 10)
WEYL_DPS = 40
#: digits of the oracle's filter: roots certified to 10**-(WEYL_FILTER_DPS + 5)
WEYL_FILTER_DPS = 8


def weyl_audit(p: np.ndarray, z_e) -> WeylAudit:
    """Prefix products of singular values against eigenvalue distances.

    Checks prod_{j<=N} s_j <= prod_{j<=N} |lambda_j - z_e| for every N in
    log space (relative slack WEYL_REL_SLACK), on a copy of p.
    """
    return _audit_in_place(np.array(p, dtype=complex), z_e, None)


def _audit_in_place(a, z_e, eigenvalues) -> WeylAudit:
    """The prefix comparison of `weyl_audit` on the complex square array a,
    which is spent: without eigenvalues those of a are taken first, then a
    is shifted by z_e in place for its singular values."""
    if eigenvalues is None:
        eigenvalues = op.eigenvalues(a)
    a.flat[::a.shape[0] + 1] -= z_e
    s = op.singular_values(a)
    d = np.sort(np.abs(np.asarray(eigenvalues, dtype=complex) - complex(z_e)))
    if d.size != s.size:
        raise ValueError("need as many eigenvalues as the dimension")
    with np.errstate(divide="ignore"):
        # add.accumulate adds in order: the running sums of a loop, bit for bit
        acc_s = np.cumsum(np.log(s))
        acc_d = np.cumsum(np.log(d))
    live = acc_s != -np.inf            # a zero singular prefix bounds everything
    if np.any(acc_d[live] == -np.inf):
        return WeylAudit(False, float("-inf"))      # cannot happen for exact data
    margin = acc_d[live] - acc_s[live]
    ok = not np.any(margin < -WEYL_REL_SLACK * np.maximum(1.0, np.abs(acc_d[live])))
    return WeylAudit(ok, float(margin.min(initial=np.inf)))


#: the squared slack (1 + 10**(10 - WEYL_DPS))**2 as (numerator, denominator)
_SLACK = (10 ** (WEYL_DPS - 10) + 1) ** 2, 10 ** (2 * WEYL_DPS - 20)


def _filtered_prefixes(squares, eig, dps):
    """Whether every ascending prefix product k < n of the squared singular
    values is at most that of the squared distances times the squared slack
    ``_SLACK``, decided from the root triples of ``charpoly.roots`` at
    ``dps`` digits: True or False when the certified bounds decide every
    prefix, None otherwise.

    A triple w lies within ``|w| / tol`` of its root.  The squares are real,
    so each lies within ``(|re| + |im|) / tol`` of ``re``; each distance lies
    within a factor ``1 -+ 1 / tol`` of ``|w|``.  The sorted lower and upper
    bounds bound the sorted values, so their prefix products bound the
    prefix products.  The bounds are ints over a common unit per side
    (both sides carry ``4**-e`` per factor, which cancels), and the
    comparisons are exact.
    """
    tol = 10 ** (dps + 5)
    fs, fd = max(f for *_, f in squares), max(f for *_, f in eig)
    s_lo, s_hi, d_lo, d_hi = [], [], [], []
    for a, b, f in squares:                       # unit tol * 2**fs
        r = abs(a) + abs(b)
        s_lo.append(max(a * tol - r, 0) << fs - f)
        s_hi.append(a * tol + r << fs - f)
    for a, b, f in eig:                           # unit tol**2 * 4**fd
        m2 = a * a + b * b << 2 * (fd - f)
        d_lo.append(m2 * (tol - 1) ** 2)
        d_hi.append(m2 * (tol + 1) ** 2)
    num, den = _SLACK
    verdict = True
    acc = [1] * 4
    unit_s = unit_d = 1
    for factors in list(zip(*map(sorted, (s_lo, s_hi, d_lo, d_hi))))[:-1]:
        s_lo_k, s_hi_k, d_lo_k, d_hi_k = acc = [x * y for x, y in zip(acc, factors)]
        unit_s, unit_d = unit_s * (tol << fs), unit_d * (tol * tol << 2 * fd)
        # S_k <= D_k * num / den, with both sides over their units
        if s_lo_k * unit_d * den > d_hi_k * unit_s * num:
            return False
        if s_hi_k * unit_d * den > d_lo_k * unit_s * num:
            verdict = None
    return verdict


def weyl_oracle(p: np.ndarray, z_e):
    """Exact check of the prefix-product inequality on one matrix p or on
    each matrix of a stack: whether every ascending prefix product of the
    squared singular values of ``p - z_e`` is at most that of the squared
    distances ``|lambda - z_e|**2`` times the squared slack ``_SLACK``.

    One ``charpoly.polynomials`` call gives the exact polynomials of every
    matrix.  The prefix k = n is the identity ``det(Bᴴ B) = |det B|**2``,
    checked exactly on the constant coefficients.  The prefixes k < n are
    decided by the certified bounds of ``_filtered_prefixes``: from roots
    at WEYL_FILTER_DPS digits for every matrix, then at WEYL_DPS digits for
    the matrices left undecided.  A prefix still undecided at WEYL_DPS (its
    true ratio within about 1e-44 of the slack) raises NonConvergence.
    """
    stack = np.asarray(p, dtype=complex)
    stack = stack[None] if stack.ndim == 2 else stack
    polys = charpoly.polynomials(stack, z_e)
    n = stack.shape[-1]
    for eig, gram, _ in polys:
        (re, im), (det_g, _) = eig[-1], gram[-1]
        if (-1) ** n * det_g != re * re + im * im:
            return False
    pending = [(gram, eig) for eig, gram, _ in polys]
    for dps in (WEYL_FILTER_DPS, WEYL_DPS):
        found = charpoly.roots([f for pair in pending for f in pair], dps)
        undecided = []
        for k, pair in enumerate(pending):
            verdict = _filtered_prefixes(found[2 * k], found[2 * k + 1], dps)
            if verdict is False:
                return False
            if verdict is None:
                undecided.append(pair)
        if not undecided:
            return True
        pending = undecided
    raise NonConvergence(f"{len(pending)} matrices have a Weyl prefix undecided "
                         f"at {WEYL_DPS} digits")


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
    box = [z for z in (e.value * h for e in res.entries)
           if abs(z.real - E) <= half and z.imag >= -beta * h]
    ok = not any(abs(z - center) > radius for z in box)
    return DiskBoxCheck(ok and pre, pre, len(box), radius)


# ---------------------------------------------------------------------------
# coherent-state symbol study
# ---------------------------------------------------------------------------

@dataclass
class CoherentStudy:
    errors: list        # per point: {h: |<P> - two-term symbol|}
    powers: list        # per point: fitted h-power of the error, or None
    undefined: bool     # h takes fewer than two values: no power is defined


#: suspension coordinate tau of the `default_symbol_points`
SYMBOL_TAU0 = 0.5
#: largest `coherent_k_max` a config may ask for (35 at the default's
#: smallest h, 0.0125); the study's work grows like its square times
#: `coherent_j_max`, and at the smallest h accepted (about 0.0037, j_max
#: 20) it takes 4.6-4.9 s on one core of a 2-vCPU Xeon host
COHERENT_K_CEILING = 100
#: smallest `coherent_j_max`; it is the cutoff at every h >= 0.0125
COHERENT_J_FLOOR = 12
#: largest share of a packet's squared norm the coherent study may miss
COHERENT_MASS_TOL = 0.02
#: widths past a packet's tau frequency that `coherent_j_max` keeps (1.645):
#: the packet's mass in j is Gaussian with standard deviation width /
#: sqrt(2), and half of COHERENT_MASS_TOL lies beyond this many widths; the
#: other half is left to the frequency cutoff and the tau grid
COHERENT_J_WIDTHS = NormalDist().inv_cdf(1.0 - COHERENT_MASS_TOL / 2.0) / math.sqrt(2.0)


def default_symbol_points(flow: MappingTorusFlow):
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
    x0 = (0.5, 0.5, SYMBOL_TAU0)
    return [(x0, tuple(p)) for p in pts]


def coherent_k_max(points, h):
    """Frequency cutoff of the truncation the coherent study uses at h: the
    packets' centre frequency plus four widths, and a margin of 2."""
    r_max = max(np.linalg.norm(np.asarray(xi)[:2]) for _, xi in points)
    spread = 4.0 * np.sqrt((1.0 + r_max ** 2) ** 0.5 / h) / (2.0 * np.pi)
    return int(np.ceil(r_max / (2.0 * np.pi * h) + spread)) + 2


def coherent_j_max(flow: MappingTorusFlow, points, h):
    """Orbit-mode cutoff |j| of the coherent study at h, at least
    COHERENT_J_FLOOR: each packet's tau frequency plus COHERENT_J_WIDTHS
    widths, and a margin of 2.  At the packet's tau0, mode j oscillates at
    2 pi j / (T c(tau0)), the packet at xi_3 / h with width sqrt(|xi|_h) /
    sqrt(h), |xi|_h = sqrt(1 + |xi|^2)."""
    need = 0.0
    for (_, _, tau0), xi in points:
        xi = np.asarray(xi, dtype=float)
        scale = flow.period * float(flow.time_change(tau0)) / (2.0 * np.pi)
        width = np.sqrt((1.0 + xi @ xi) ** 0.5 / h)
        need = max(need, scale * (abs(xi[2]) / h + COHERENT_J_WIDTHS * width))
    return max(COHERENT_J_FLOOR, int(np.ceil(need)) + 2)


def coherent_symbol_study(escape: EscapeFunction, points, h_list,
                          truncation: op.Truncation) -> CoherentStudy:
    """Error of packet expectations against the two-term symbol, per h, on
    ``truncation`` with `coherent_k_max` and `coherent_j_max` in place of
    its cutoffs.

    Each factor is computed once per distinct input: X(G) per pair (x0,
    +-xi) (bit for bit equal), with the base flow once per (x0, t); one
    orbit walk (`operator.restrict_orbits`); a phase table per cutoff; the
    profiles of each mode direction (`operator.sector_log_weights`); a tau
    factor per `PacketProfile.tau_key` and a basis per shape at each h; the
    torus overlaps of all packets per weight run.  Orbit sectors are never
    built: `operator.orbit_expectation` reads the packets' rank-one factors
    for all sectors of a run, one per k0, -k0 pair, added in sector order.
    """
    from . import cotangent
    from .model import BasePoint

    flow = escape.flow
    qs = [cotangent.CotangentPoint(BasePoint(ax[:2], ax[2]), xi[:2], xi[2]) for ax, xi in points]
    pairs = [(tuple(ax), max(tuple(xi), tuple(-v for v in xi))) for ax, xi in points]
    reps = dict(zip(pairs, qs))
    xgs = dict(zip(reps, escape.escape_derivatives(reps.values())))
    preds = [cotangent.h0(flow, q) + 1j * xgs[pair] for pair, q in zip(pairs, qs)]

    errors = [dict() for _ in points]
    grid, phases, memo = op.TauGrid(flow), None, {}
    walked = op.enumerate_orbits(flow.cat, max(coherent_k_max(points, h) for h in h_list),
                                 truncation.p_max)
    for h in h_list:
        k_max = coherent_k_max(points, h)
        j_cut = coherent_j_max(flow, points, h)
        tr = replace(truncation, k_max=k_max, j_max=j_cut)
        profiles = [op.PacketProfile(grid, ax, xi, h) for ax, xi in points]
        if phases is None or len(phases) != 2 * j_cut + 1:
            phases = None               # free the old table before the new one
            phases = grid.phase_table(j_cut)
        tau_ints = np.stack([prof.orbit_tau_integrals(phases) for prof in profiles])
        neutral = op.build_generator(flow, op.NeutralSector(), tr)
        vecs = [prof.project(flow, neutral) for prof in profiles]

        sectors = op.restrict_orbits(flow.cat, walked, k_max, tr.p_max)
        groups = op.mirror_groups(sectors + [neutral.sector])
        owners = iter(groups)           # the neutral sector is the last group
        row = {s.key: i for i, s in enumerate(sectors)}
        terms = np.empty((len(sectors), len(points)), dtype=complex)
        masses = np.empty((len(sectors), len(points)))
        bases = {(s.p_hi, s.n_cells): s for s in sectors}      # all an orbit basis reads
        bases = {shape: op.sector_basis(s, tr) for shape, s in bases.items()}
        for logws in op.sector_log_weights(escape, h, [
                (g[0], bases[g[0].p_hi, g[0].n_cells]) for g in groups[:-1]]
                + [(neutral.sector, neutral.basis)], memo):
            run = [(next(owners), logw) for logw in logws]
            if run[-1][0] == [neutral.sector]:
                mat = op.conjugate_by_diagonal(neutral.matrix, run.pop()[1])
                mat *= h
            if not run:
                continue
            run_sectors = [s for g, _ in run for s in g]
            starts = np.cumsum([0] + [s.n_cells for s in run_sectors[:-1]])
            # a group's sectors weigh their cells with the group's rows of logw
            logw = np.concatenate([lw for _, lw in run]).reshape(-1, 2 * j_cut + 1)
            firsts = np.cumsum([0] + [g[0].n_cells for g, _ in run])
            rows = np.concatenate([f + np.arange(s.n_cells) for (g, _), f in zip(run, firsts)
                                   for s in g])
            cells = np.reshape([k for s in run_sectors for k in s.freqs], (-1, 2))
            x_ints = op.torus_overlaps(profiles, cells)
            idx = [row[s.key] for s in run_sectors]
            terms[idx] = h * op.orbit_expectation(flow, tr, logw, rows, starts, x_ints, tau_ints)
            masses[idx] = (np.add.reduceat(np.abs(x_ints) ** 2, starts, axis=1).T
                           * np.sum(np.abs(tau_ints) ** 2, axis=1))

        acc = np.array([np.vdot(v, mat @ v) for v in vecs])
        norms = np.array([float(np.vdot(v, v).real) for v in vecs])
        for term, mass in zip(terms, masses):
            acc += term
            norms += mass
        for i, prof in enumerate(profiles):
            if norms[i] < (1.0 - COHERENT_MASS_TOL) * prof.ref_norm2:
                raise UnresolvedState(
                    f"point {i}: captured mass {norms[i] / prof.ref_norm2:.4f} at h={h}")
            pred = preds[i].real + 1j * h * preds[i].imag
            errors[i][float(h)] = float(abs(acc[i] / norms[i] - pred))

    logh = np.log(np.asarray(h_list, dtype=float))
    powers = [fit_slope(logh, np.log([err[float(h)] for h in h_list])) for err in errors]
    return CoherentStudy(errors, powers, None in powers)


# ---------------------------------------------------------------------------
# campaign orchestration
# ---------------------------------------------------------------------------

class CampaignContext(SolveStore):
    """The solve store of one campaign, which also holds what two or more
    checks share: one escape function per distinct order set (the two sets
    are equal on the default config) and the base spectrum, each built on
    first use and at most once."""

    def __init__(self, cfg):
        super().__init__(cfg.flow())
        self.cfg = cfg                   # config.RunConfig

    def escape_function(self, params):
        return self._once(("escape", params), lambda: EscapeFunction(self.flow, params))

    @property
    def escape(self):
        return self.escape_function(self.cfg.escape)

    def spectrum(self, escape, truncation):
        cfg = self.cfg
        return extract_resonances(self, escape, truncation, cfg.h, cfg.residual_tol,
                                  cfg.cluster_radius)

    @property
    def base(self):
        return self._once("base", lambda: self.spectrum(self.escape, self.cfg.truncation))


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
    # a zero primary bound (G = 0) leaves no ratio: that fails
    ratio = rep2.decay_bound / rep.decay_bound if rep.decay_bound else None
    ok = (rep.violations == 0 and rep2.violations == 0
          and rep.c_measured > 0.0 and ratio is not None and 1.8 <= ratio <= 2.2)
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
    ok = bool(sym.pairs) and sym.max_distance < 1e-6 and not sym.unmatched
    return ok, {"max_distance": sym.max_distance, "pairs": len(sym.pairs)}


def _check_intrinsic(ctx):
    cfg = ctx.cfg
    grown = replace(cfg.truncation, k_max=cfg.truncation.k_max + 4,
                    p_max=cfg.truncation.p_max + 2)
    cross = intrinsic_check(ctx.base,
                            ctx.spectrum(ctx.escape_function(cfg.escape_alt), cfg.truncation),
                            cfg.floor)
    drift = intrinsic_check(ctx.base, ctx.spectrum(ctx.escape, grown), cfg.floor)
    ok = (bool(cross.pairs) and bool(drift.pairs)
          and cross.max_distance < 1e-4 and not cross.unmatched
          and drift.max_distance < 1e-4 and not drift.unmatched)
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


#: largest sector dimension the weyl check audits; larger sectors are
#: left out with one warning
WEYL_DIM_LIMIT = 500


def _check_weyl(ctx):
    """Weyl audits of every sector of dimension <= WEYL_DIM_LIMIT, plus 20 random
    matrices audited in float64 and cross-checked by ``weyl_oracle`` from
    exact characteristic polynomials; no audited sector is a failure.

    A sector's dimension is read off its basis before any block is built.
    The weights of every group it may audit come from one
    ``operator.sector_log_weights`` pass, bit for bit those of each sector
    alone (``EscapeFunction._averages``).  Each audited block is weighted,
    multiplied by h and shifted by z_e in its own buffer, h P - z_e with P
    = W H W^{-1}.  The orbit sectors through k0 and -k0 are audited once
    (``operator.mirror_groups``) and counted twice.  This is exact, not an
    approximation: the two generator blocks and eigenvalue lists depend on
    the cell count alone and the two weights are equal bit for bit, so the
    weighted matrices and their audits are identical.

    A group whose time reversal (``operator.reversal_key``) comes later
    certifies it instead: with J the cell reversal, J H^T J = H, so the
    partner's shifted matrix is D J (h P - z_e)^T J D^{-1} with D =
    diag(exp(delta)), delta = logw_partner + J logw.  It has the same
    eigenvalues, and each prefix margin at least the audited worst margin
    less n spread(delta); when that clears -WEYL_REL_SLACK (so the audit
    passed), the partner counts as audited, else it is audited in turn.
    The bound holds for exact singular values; on an ill-conditioned block
    the float64 SVDs of two partners can differ by far more, so a run in
    which any audit fails audits the certified partners too, with the same
    weights, and reports the numbers of a full audit."""
    cfg, flow = ctx.cfg, ctx.cfg.flow()
    z_e = complex(cfg.E, 1.0)
    cell_vals = np.array([p.value for p in ctx.cell_pairs(cfg.truncation)])
    sectors = [op.NeutralSector()] + ctx.orbits(cfg.truncation.k_max, cfg.truncation.p_max)
    groups = {op.mirror_key(group[0]): group for group in op.mirror_groups(sectors)}
    dims = {key: len(op.sector_basis(group[0], cfg.truncation)) for key, group in groups.items()}
    weighed = [key for key in groups if dims[key] <= WEYL_DIM_LIMIT]
    # one run's bases at a time; the pass runs to its end, which drops its memo
    items = ((groups[k][0], op.sector_basis(groups[k][0], cfg.truncation)) for k in weighed)
    runs = op.sector_log_weights(ctx.escape, cfg.h, items, {})
    logws = dict(zip(weighed, [logw for run in runs for logw in run]))

    def audit_group(key):
        """The audit of a group's first sector, its block built, weighted,
        scaled and shifted in its own buffer."""
        sector = groups[key][0]
        evs = (None if isinstance(sector, op.NeutralSector)
               else np.concatenate([cell_vals] * sector.n_cells) * cfg.h)
        a = op.conjugate_by_diagonal(op.build_generator(flow, sector, cfg.truncation).matrix,
                                     logws[key])
        a *= cfg.h
        return _audit_in_place(a, z_e, evs)

    audits, seen, certified, bound_max = [], set(), [], 0.0
    for key in weighed:
        seen.add(key)
        if key in certified:
            continue
        audit = audit_group(key)
        audits.append((audit, len(groups[key])))
        sector = groups[key][0]
        partner = op.reversal_key(sector)
        if partner in logws and partner not in seen:
            delta = logws[partner] + logws[key].reshape(sector.n_cells, -1)[::-1].ravel()
            bound = len(delta) * float(np.ptp(delta))
            bound_max = max(bound_max, bound)
            if audit.worst_margin - bound >= -WEYL_REL_SLACK:
                certified.append(partner)
    sectors_ok = all(audit.verdict for audit, _ in audits)
    if not sectors_ok:          # a failing run reports the numbers of a full audit
        audits += [(audit_group(key), len(groups[key])) for key in certified]
        certified = []
    LOG.debug("weyl: %d sector SVDs, %d time-reversal pairs certified (largest n spread %.3g)",
              len(audits), len(certified), bound_max)
    audited = sum(n for _, n in audits) + sum(len(groups[key]) for key in certified)
    worst = min((audit.worst_margin for audit, _ in audits), default=None)
    skipped = [dims[key] for key in groups if key not in logws for _ in groups[key]]
    if skipped:
        LOG.warning("weyl: %d sectors above %d modes not audited (largest %d)",
                    len(skipped), WEYL_DIM_LIMIT, max(skipped))
    randoms = weyl_random_matrices(cfg.seed)
    float_ok = all(weyl_audit(m, z_e).verdict for m in randoms)
    random_ok = weyl_oracle(np.array(randoms), z_e) and float_ok
    ok = audited > 0 and sectors_ok and random_ok
    return ok, {"sectors_audited": audited,
                "worst_margin": worst,
                "random_oracle_ok": random_ok}


def _check_ims(ctx):
    cfg = ctx.cfg
    tr = replace(cfg.truncation, j_max=cfg.ims_j_max, j_buffer=16)
    block = op.build_generator(cfg.flow(), op.NeutralSector(), tr)
    h_list = [0.1, 0.05, 0.025, 0.0125]
    res = op.partition_ims_check(block, ctx.escape, complex(cfg.E, 1.0),
                                 h_list, trials=20, r0=cfg.ims_band[0],
                                 r1=cfg.ims_band[1], seed=cfg.seed)
    # a zero residual fails the verdict, and a ratio over it is null
    values = [res[h] for h in h_list]
    ratios = [a / b if b else None for a, b in zip(values, values[1:])]
    return all(r is not None and 3.0 <= r <= 5.0 for r in ratios), {
        "residuals": {str(k): v for k, v in res.items()}, "ratios": ratios}


def _check_garding(ctx):
    cfg, flow = ctx.cfg, ctx.cfg.flow()
    k0 = cfg.truncation.k_max
    sweep = {}
    for k in (k0, k0 + 2, k0 + 4):
        tr = replace(cfg.truncation, k_max=k)
        sector = ctx.orbits(k, tr.p_max)[0]
        hp = op.apply_weight(op.build_generator(flow, sector, tr), ctx.escape, cfg.h)
        hp *= cfg.h
        sweep[k] = op.garding_upper_check(hp, trials=200, seed=cfg.seed)
    return max(sweep.values()) <= 1.0, {"sweep": {str(k): v for k, v in sweep.items()}}


def _check_coherent(ctx):
    cfg = ctx.cfg
    study = coherent_symbol_study(ctx.escape, default_symbol_points(cfg.flow()),
                                  cfg.coherent_h_list, cfg.truncation)
    # from a single h there is no power to bound: that fails
    return not study.undefined and min(study.powers) >= 0.5, {
        "powers": study.powers,
        "errors": [{str(k): v for k, v in e.items()} for e in study.errors]}


def _check_counting(ctx):
    cfg = ctx.cfg
    study = scaling_study(ctx, ctx.escape, cfg.truncation, cfg.E, cfg.alpha_grid,
                          cfg.beta, cfg.residual_tol, cfg.cluster_radius)
    control = synthetic_lattice_counts(cfg.E, cfg.alpha_grid)
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


def run_campaign(cfg, progress=None):
    """Run the configured checks on the flow of ``cfg`` and return a
    JSON-able report.

    A check that raises gets verdict False and an "error" payload instead
    of aborting the run; its frames go to the "catspec" logger once, with
    the first check that raises it (a failed shared build re-raises).
    """
    ctx = CampaignContext(cfg)
    checks = {}
    verdicts = {}
    logged = []
    for name, check in CHECKS.items():
        if name not in cfg.checks:
            continue
        if progress:
            progress(name)
        try:
            verdicts[name], checks[name] = check(ctx)
        except Exception as exc:  # noqa: BLE001 - verdicts must not abort the run
            again = exc in logged       # a failed shared build, re-raised
            LOG.error("check %s raised%s", name, " as above" if again else "", exc_info=not again)
            logged.append(exc)
            verdicts[name] = False
            checks[name] = {"error": f"{type(exc).__name__}: {exc}"}

    flow = cfg.flow()
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
