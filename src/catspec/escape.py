"""Anisotropic order function and escape function on the cotangent bundle.

Construction follows the averaging recipe: two [0,1]-valued profiles are
obtained by time-averaging cosphere bumps along the projective covector
flow, the order function interpolates between the prescribed exponents
``u < n0 < s`` near the unstable / neutral / stable cotangent cones, and
the escape function multiplies the order by a log-radius built from a
one-homogeneous interpolant that degenerates to the conserved symbol near
the neutral cone.  In the flow-equivariant coordinates of
:func:`catspec.cotangent.adapted_components` the projective flow is the
closed-form normalization of ``diag(exp(theta t), exp(-theta t), 1)``,
which the averaging quadrature exploits; every value agrees with the one
obtained by transporting covectors with the lifted flow itself.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import cotangent
from .cotangent import CotangentPoint
from .model import MappingTorusFlow


def smoothstep(x):
    """Quintic ramp: 0 below 0, 1 above 1, C^2 at both edges."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (6.0 * x - 15.0))


def composite_gauss_legendre(t_avg, panels, nodes_per_panel):
    """Nodes on [-t_avg, t_avg] and weights of the time average over it."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(-t_avg, t_avg, panels + 1)
    half = np.diff(edges) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel() / (2.0 * t_avg)
    return nodes, weights


@dataclass(frozen=True)
class OrderParams:
    """Exponents and geometry of the order function."""

    u: float = -8.0
    n0: float = 0.0
    s: float = 8.0
    t_avg: float = 8.0
    aperture: float = 0.1
    radius: float = 10.0
    symmetric: bool = True

    def __post_init__(self):
        if not (self.u < self.n0 < self.s):
            raise ValueError("order exponents must satisfy u < n0 < s")
        if not (self.u < 0.0 < self.s):
            raise ValueError("need u < 0 < s for a nontrivial escape rate")
        if self.t_avg <= 0.0:
            raise ValueError("averaging time must be positive")
        if not (0.0 < self.aperture < np.pi / 4.0):
            raise ValueError("aperture must lie in (0, pi/4)")
        if self.radius <= 1.0:
            raise ValueError("sampling radius must exceed the cutoff scale 1")


class EscapeFunction:
    """Evaluator for the order function, the escape function and its decay.

    Values depend on phase-space points only through the equivariant frame
    components, so batch evaluation works directly on arrays of those
    triples; CotangentPoint wrappers are provided for single points.  The
    construction is even in the covector, so the symmetric-order option of
    :class:`OrderParams` holds automatically; the flag is kept as metadata.
    """

    #: panels on [-t_avg, t_avg] and nodes per panel of the time average
    PANELS, NODES_PER_PANEL = 24, 16

    def __init__(self, flow: MappingTorusFlow, params: OrderParams):
        self.flow = flow
        self.params = params
        self.theta = flow.theta
        sa = np.sin(params.aperture)
        self._cone2 = sa * sa                      # squared sine of cone half-angle
        self._blend2 = np.sin(2.0 * params.aperture) ** 2
        self._nodes, self._weights = composite_gauss_legendre(
            params.t_avg, self.PANELS, self.NODES_PER_PANEL)
        self._log_ga = 2.0 * self.theta * self._nodes
        self._ga = np.exp(self._log_ga)
        # rows whose largest square lies outside (_tiny, _huge) may overflow
        # or lose bits to underflow along the nodes, so they keep every node
        reach = np.exp(np.abs(self._log_ga).max())
        self._tiny = 1e4 * np.finfo(float).tiny * reach
        self._huge = np.finfo(float).max / (4.0 * reach)

    def _orders(self, orders):
        """The parameter sets to evaluate, ``[self.params]`` for None.  The
        profiles do not depend on the exponents, so one pass serves every set
        with this evaluator's ``t_avg``, ``aperture`` and ``radius``."""
        if orders is None:
            return [self.params]
        p = self.params
        for q in orders:
            if (q.t_avg, q.aperture, q.radius) != (p.t_avg, p.aperture, p.radius):
                raise ValueError("orders may differ from the evaluator only in u, n0, s "
                                 "and symmetric")
        return list(orders)

    # -- covector flow -----------------------------------------------------

    def covector_flow(self, adapted, t):
        """Lifted flow on frame components: diag(e^{th}, e^{-th}, 1)."""
        d = np.asarray(adapted, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.stack(
            [d[..., 0] * np.exp(self.theta * t),
             d[..., 1] * np.exp(-self.theta * t),
             d[..., 2] * np.ones_like(t)], axis=-1)

    # -- order function and escape function --------------------------------

    #: saturation level of the averaged profiles; the averaging time keeps
    #: the raw profiles within this distance of {0, 1} on the aperture cones
    SATURATION = 0.2

    def _profiles(self, adapted):
        """Saturated averaged profiles (m1, m2).

        The raw time averages approach their limit values only at rate
        exp(-theta t_avg), so they are passed through a monotone ramp that
        saturates at the level the averaging time guarantees; this widens
        the constant-order plateaus to the declared cones while keeping the
        flow monotonicity exact (chain rule with nonnegative slope).
        """
        eps = self.SATURATION
        return tuple(smoothstep((m - eps) / (1.0 - 2.0 * eps))
                     for m in self._raw_profiles(adapted))

    #: rows per gemv of _raw_profiles, a multiple of 4 (see there); with a
    #: 3-row tail a block over all nodes (35 x 384 x 8 B = 105 KB) stays
    #: below glibc's 128 KB mmap threshold, and so do the work arrays of
    #: _average, so they are reused from the heap instead of mapped and
    #: page-faulted afresh on every call
    BLOCK_ROWS = 32
    #: rows whose windows are computed and sorted together
    SORT_ROWS = 2048
    #: rows are sorted by their m1 window start in bands of this many
    #: nodes, and by their m2 window start within a band
    SORT_BAND = 16
    #: nodes added on each side of a row's closed-form transition window
    WINDOW_MARGIN = 2

    def _raw_profiles(self, adapted):
        """Time-averaged bump profiles for a batch of frame triples.

        Along the flow the squared components are ``(a^2 g, b^2 / g, e^2)``
        with ``g = exp(2 theta t)``; the bumps only need squared fractions,
        so normalization is never materialized.  The fraction of ``a^2``
        increases with ``g`` and that of ``b^2`` decreases, so each bump is
        exactly 0 before and exactly 1 after a window of nodes that
        :meth:`_windows` finds in closed form (``smoothstep`` returns 0.0
        and 1.0 there, and ``1 - 1`` is 0.0).  :meth:`_average` evaluates
        the bumps on the union of the windows of a few sorted rows only,
        fills the rest of each row with 0.0 and 1.0, and reduces every row
        over all nodes with ``@ self._weights``.  The gemv thus sees the
        values of the one-pass formula, and the profiles equal
        ``tests/oracles.py`` ``raw_profiles_one_shot`` bit for bit, on one
        BLAS thread or two.  This needs the blocking rule of OpenBLAS:
        gemv reduces rows in groups of 4 and the last ``n mod 4`` rows in
        a remainder kernel that rounds differently.  So blocks hold
        multiples of 4 rows, only the first ``n - n mod 4`` rows are
        sorted, and the last ``n mod 4`` rows end the last block in their
        order (a batch of one row stays on numpy's dot).
        """
        d = np.asarray(adapted, dtype=float)
        batch = d.reshape(-1, 3)
        n = len(batch)
        body = n - n % 4
        m = (np.empty(n), np.empty(n))
        for c0 in range(0, max(body, 1), self.SORT_ROWS):
            c1 = c0 + self.SORT_ROWS if c0 + self.SORT_ROWS < body else n
            self._average(batch[c0:c1] ** 2, (m[0][c0:c1], m[1][c0:c1]))
        shape = d.shape[:-1]
        return m[0].reshape(shape), m[1].reshape(shape)

    def _windows(self, sq):
        """Nodes ``[start, stop)`` outside which the bumps of m1 (row 0)
        and m2 (row 1) are exactly 0 (before) or 1 (after).

        The fraction ``a^2 g^2 / (a^2 g^2 + e^2 g + b^2)`` equals ``c`` at
        the positive root of ``(1 - c) a^2 g^2 - c e^2 g - c b^2``; the
        fraction of ``b^2`` at ``g`` is that of ``a^2`` at ``1 / g`` with
        ``a`` and ``b`` swapped.  The roots for ``c = lo`` and ``1 - lo``
        are taken in ``log g`` from the squares divided by the row
        maximum, so nothing overflows, and widened by WINDOW_MARGIN nodes.
        A root that is 0/0 (a row on an axis) or a row whose largest square
        could overflow or lose bits to underflow at some node opens the
        window to every node.
        """
        n_nodes = len(self._nodes)
        lo = self._cone2
        top = np.maximum(np.maximum(sq[:, 0], sq[:, 1]), sq[:, 2])
        with np.errstate(all="ignore"):
            a, b, e = (sq / top[:, None]).T
            log_a, log_b = np.log(a), np.log(b)
            disc = 4.0 * lo * (1.0 - lo) * a * b
            low, high = (np.log(c * e + np.sqrt((c * e) ** 2 + disc)) - math.log(2.0 * (1.0 - c))
                         for c in (lo, 1.0 - lo))
            # starts of m1 and m2, then their stops
            ends = np.stack([log_b - high, low - log_a, log_b - low, high - log_a])
        ends[:, ~((top > self._tiny) & (top < self._huge))] = np.nan
        # a NaN edge opens the window to every node
        np.fmax(ends[:2], -np.inf, out=ends[:2])
        np.fmin(ends[2:], np.inf, out=ends[2:])
        nodes = np.searchsorted(self._log_ga, ends)
        start, stop = nodes[:2], nodes[2:]
        start -= self.WINDOW_MARGIN
        stop += self.WINDOW_MARGIN
        np.maximum(start, 0, out=start)
        np.minimum(stop, n_nodes, out=stop)
        return start, stop

    def _average(self, sq, m):
        """Write the raw profiles of the rows ``sq`` of squared components
        into ``m[0]`` and ``m[1]`` (see :meth:`_raw_profiles`)."""
        n = len(sq)
        if not n:
            return
        n_nodes = len(self._nodes)
        body = n - n % 4
        start, stop = self._windows(sq)
        order = np.arange(n)
        if body > self.BLOCK_ROWS:
            key = start[0] // self.SORT_BAND * n_nodes + start[1]
            order[:body] = np.argsort(key[:body], kind="stable")
        # blocks of BLOCK_ROWS sorted rows, the last one with the tail
        bounds = (list(range(0, body, self.BLOCK_ROWS)) or [0]) + [n]
        first = np.minimum.reduceat(start[:, order], bounds[:-1], axis=1).T.tolist()
        last = np.maximum.reduceat(stop[:, order], bounds[:-1], axis=1).T.tolist()
        # runs of blocks share the elementwise work while its arrays are no
        # larger than one block's over all nodes: [first block, last block
        # + 1, m1 window start, m2 window start, m1 window stop, m2 stop]
        cells = (self.BLOCK_ROWS + 3) * n_nodes
        runs = []
        for i, ((p0, q0), (p1, q1)) in enumerate(zip(first, last)):
            if runs:
                r = runs[-1]
                merged = [r[0], i + 1, min(r[2], p0), min(r[3], q0), max(r[4], p1), max(r[5], q1)]
                if (bounds[i + 1] - bounds[r[0]]) * (max(merged[4:]) - min(merged[2:4])) <= cells:
                    runs[-1] = merged
                    continue
            runs.append([i, i + 1, p0, q0, p1, q1])
        lo, span = self._cone2, 1.0 - 2.0 * self._cone2
        work = [np.empty(min(n, self.BLOCK_ROWS + 3) * n_nodes) for _ in range(4)]

        def view(k, shape):
            return work[k][:shape[0] * shape[1]].reshape(shape)

        for i0, i1, p0, q0, p1, q1 in runs:
            rows = order[bounds[i0]:bounds[i1]]
            blk = sq[rows]
            u0, u1 = min(p0, q0), max(p1, q1)
            g = self._ga[u0:u1]
            a2, b2, tot = (view(k, (len(rows), u1 - u0)) for k in range(3))
            np.multiply(blk[:, 0:1], g, out=a2)
            np.divide(blk[:, 1:2], g, out=b2)
            np.add(a2, b2, out=tot)
            tot += blk[:, 2:3]
            # the bumps' arguments, compacted to their windows
            x1 = view(3, (len(rows), p1 - p0))
            np.divide(b2[:, p0 - u0:p1 - u0], tot[:, p0 - u0:p1 - u0], out=x1)
            x2 = view(1, (len(rows), q1 - q0))
            np.divide(a2[:, q0 - u0:q1 - u0], tot[:, q0 - u0:q1 - u0], out=x2)
            for profile, x, w0, w1 in ((0, x1, p0, p1), (1, x2, q0, q1)):
                x -= lo
                x /= span
                # smoothstep in place, one rounded operation at a time in
                # its order: x^3 (10 + x (6 x - 15)) on x clipped to [0, 1]
                np.clip(x, 0.0, 1.0, out=x)
                poly, bump = view(2, x.shape), view(0, x.shape)
                np.multiply(x, 6.0, out=poly)
                poly -= 15.0
                poly *= x
                poly += 10.0
                np.multiply(x, x, out=bump)
                bump *= x
                bump *= poly
                if profile == 0:
                    np.subtract(1.0, bump, out=bump)
                for b0, b1 in zip(bounds[i0:i1], bounds[i0 + 1:i1 + 1]):
                    vals = view(2, (b1 - b0, n_nodes))
                    vals[:, :w0] = 0.0
                    vals[:, w0:w1] = bump[b0 - bounds[i0]:b1 - bounds[i0]]
                    vals[:, w1:] = 1.0
                    m[profile][order[b0:b1]] = vals @ self._weights

    def _ramp(self, r):
        # radial cutoff: 0 below 1/2, 1 above 1, smooth in log r
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0.0
        out[pos] = smoothstep(1.0 + np.log2(r[pos]))
        return out

    def order_value(self, adapted):
        """Full order function m: radial cutoff times the direction profile
        ``s + (n0 - s) m1 + (u - n0) m2``, in [u, s]."""
        m = self._order_and_escape(adapted, [self.params])[0][0]
        return m if m.shape else float(m)

    def radial_interpolant(self, adapted):
        """One-homogeneous radius: |xi| in the hyperbolic cones, |symbol|
        near the neutral cone, blended on the cosphere."""
        d = np.asarray(adapted, dtype=float)
        r = np.linalg.norm(d, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho2 = (d[..., 0] ** 2 + d[..., 1] ** 2) / (r * r)
        w0 = 1.0 - smoothstep((rho2 - self._cone2) / (self._blend2 - self._cone2))
        f = np.where(r > 0.0, w0 * np.abs(d[..., 2]) + (1.0 - w0) * r, 0.0)
        return f if f.shape else float(f)

    def _order_and_escape(self, adapted, orders):
        """Order function m and escape function G of each set in ``orders``,
        stacked on a leading axis, from one profile pass."""
        d = np.asarray(adapted, dtype=float)
        r = np.linalg.norm(d, axis=-1)
        ramp = self._ramp(r)
        m = np.zeros((len(orders),) + r.shape)
        live = ramp > 0.0
        if np.any(live):
            m1, m2 = self._profiles(d[live])
            for k, p in enumerate(orders):
                m[k, live] = ramp[live] * (p.s + (p.n0 - p.s) * m1 + (p.u - p.n0) * m2)
        f = self.radial_interpolant(d)
        return m, m * 0.5 * np.log1p(np.asarray(f) ** 2)

    def escape_value(self, adapted, orders=None):
        """G = m * log sqrt(1 + f^2); for a list of ``orders`` (see
        :meth:`_orders`), G of each set stacked, from one profile pass."""
        g = self._order_and_escape(adapted, self._orders(orders))[1]
        if orders is None:
            g = g[0] if g[0].shape else float(g[0])
        return g

    def escape_derivative_adapted(self, adapted, step=1e-4, orders=None):
        """Flow derivative of G along the closed-form covector flow.

        Centered differences with one Richardson step; exact transport of
        the equivariant components makes this a derivative along the lifted
        flow itself.  ``orders`` as in :meth:`escape_value`: four profile
        passes serve all sets.
        """
        d = np.asarray(adapted, dtype=float)

        def diff(h):
            return (self.escape_value(self.covector_flow(d, h), orders)
                    - self.escape_value(self.covector_flow(d, -h), orders)) / (2.0 * h)

        return (4.0 * diff(step / 2.0) - diff(step)) / 3.0

    # -- CotangentPoint wrappers -------------------------------------------

    def escape(self, q: CotangentPoint) -> float:
        return float(self.escape_value(cotangent.adapted_components(self.flow, q)))

    def escape_derivative(self, q: CotangentPoint, step=1e-4) -> float:
        """d/dt G(M_t q) at t = 0 by Richardson-extrapolated differences
        along the lifted flow."""

        def g_at(t):
            return self.escape(cotangent.lifted_flow(self.flow, q, t))

        def diff(h):
            return (g_at(h) - g_at(-h)) / (2.0 * h)

        return float((4.0 * diff(step / 2.0) - diff(step)) / 3.0)

    def cone_label(self, adapted):
        """'0' / 'u' / 's' inside the respective aperture cones, else 'mix'."""
        d = np.asarray(adapted, dtype=float)
        r2 = np.sum(d * d, axis=-1)
        fa, fb, fe = d[..., 0] ** 2 / r2, d[..., 1] ** 2 / r2, d[..., 2] ** 2 / r2
        lab = np.full(d.shape[:-1], "mix", dtype=object)
        lab[fa + fb <= self._cone2] = "0"
        lab[fb + fe <= self._cone2] = "u"
        lab[fa + fe <= self._cone2] = "s"
        return lab if lab.shape else str(lab)


@dataclass
class EscapeReport:
    """Outcome of the sampled escape-estimate verification."""

    c_measured: float
    decay_bound: float          # measured uniform decay outside the neutral cone
    max_everywhere: float       # max X(G) over all samples
    violations: int
    rows: list

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("a,b,e,m,g,xg,cone\n")
        for row in self.rows:
            buf.write(",".join(f"{v:.17g}" for v in row[:6]) + f",{row[6]}\n")
        return buf.getvalue()


def verify_escape_estimates(escape: EscapeFunction, sample_count=10000,
                            seed=0, radius_span=100.0, keep_rows=2000,
                            nonpositive_tol=1e-9, orders=None):
    """Sample the decay estimates over |xi| in [R, radius_span*R].

    Checks (a) strict uniform decay outside the neutral cone and (b) global
    nonpositivity at large radius, and reports the measured proportionality
    constant of the decay bound.  Failing samples are counted in
    ``violations``; the caller decides the verdict.  For a list of
    ``orders`` (see :meth:`EscapeFunction._orders`), one report per set, all
    from the same samples and profile passes (four, plus one for kept rows).
    """
    sets = escape._orders(orders)
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=(sample_count, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    radii = escape.params.radius * radius_span ** rng.random(sample_count)
    adapted = nu * radii[:, None]

    xgs = escape.escape_derivative_adapted(adapted, orders=sets)
    labels = escape.cone_label(adapted)
    outside = labels != "0"
    kept = adapted[:keep_rows]          # only these samples become CSV rows
    ms, gs = escape._order_and_escape(kept, sets)
    reports = []
    for p, xg, m, g in zip(sets, xgs, ms, gs):
        decay_bound = -float(np.max(xg[outside]))
        bad = (outside & (xg >= 0.0)) | (xg > nonpositive_tol)
        reports.append(EscapeReport(
            c_measured=decay_bound / min(abs(p.u), p.s), decay_bound=decay_bound,
            max_everywhere=float(np.max(xg)), violations=int(np.count_nonzero(bad)),
            rows=list(zip(*kept.T, m, g, xg, labels))))
    return reports if orders is not None else reports[0]
