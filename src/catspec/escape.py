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

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from . import cotangent
from .errors import WeightOverflow
from .model import MappingTorusFlow

#: step of the Richardson-extrapolated flow derivative of G at single points
DERIVATIVE_STEP = 1e-4
#: samples of `verify_escape_estimates` have |xi| in [R, RADIUS_SPAN * R];
#: one with X(G) > NONPOSITIVE_TOL anywhere is a violation.  The gate is the
#: one the finite-difference X(G) had; the exact X(G) has no step noise for
#: it to absorb, only rounding
RADIUS_SPAN, NONPOSITIVE_TOL = 100.0, 1e-9
#: the first AUDIT_SAMPLES samples also take X(G) as a Richardson difference
#: of escape_value; one farther than AUDIT_TOL (1 + |X(G)|) from the exact
#: X(G) is a violation.  The step's own error is about 1e-9 there
AUDIT_SAMPLES, AUDIT_TOL = 32, 1e-6


def smoothstep(x):
    """Quintic ramp: 0 below 0, 1 above 1, C^2 at both edges."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (6.0 * x - 15.0))


def smoothstep_slope(x):
    """Derivative of :func:`smoothstep`, 30 x^2 (1 - x)^2 on x clipped to
    [0, 1]: exactly 0 wherever the ramp is constant."""
    x = np.clip(x, 0.0, 1.0)
    return 30.0 * (x * (1.0 - x)) ** 2


def _richardson(g_at):
    """d/dt g_at(t) at t = 0: centered differences at DERIVATIVE_STEP / 2 and
    DERIVATIVE_STEP, in that order, combined by one Richardson step."""

    def diff(h):
        return (g_at(h) - g_at(-h)) / (2.0 * h)

    return (4.0 * diff(DERIVATIVE_STEP / 2.0) - diff(DERIVATIVE_STEP)) / 3.0


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
    """Exponents and geometry of the order function ([escape] of the config)."""

    u: float
    n0: float
    s: float
    t_avg: float
    aperture: float
    radius: float

    def __post_init__(self):
        if not (self.u < self.n0 < self.s):
            raise ValueError("order exponents must satisfy u < n0 < s")
        if not (self.u < 0.0 < self.s):
            raise ValueError("need u < 0 < s for a nontrivial escape rate")
        if self.t_avg <= 0.0:
            raise ValueError("averaging time must be positive")
        # the profile windows and the radial blend divide by sin(aperture)^2
        if not (0.0 < self.aperture < np.pi / 4.0
                and np.sin(self.aperture) ** 2 >= np.finfo(float).tiny):
            raise ValueError("aperture must lie in (0, pi/4), with sin(aperture)^2 a normal float")
        if self.radius <= 1.0:
            raise ValueError("sampling radius must exceed the cutoff scale 1")


class EscapeFunction:
    """Evaluator for the order function, the escape function and its decay.

    Values depend on phase-space points only through the equivariant frame
    components, so batch evaluation works directly on arrays of those
    triples; only `escape_derivatives` takes CotangentPoints.  The
    construction is even in the covector, so the order is symmetric.
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
        log_reach = np.abs(self._log_ga).max()
        if log_reach > np.log(np.finfo(float).max):
            raise WeightOverflow(
                f"the time average's factor exp(2 theta t) reaches exp({log_reach:.4g}) "
                f"at theta = {self.theta:.6g}, t_avg = {params.t_avg:g}; "
                "reduce t_avg or the expansion rate")
        self._ga = np.exp(self._log_ga)
        # rows whose largest square lies outside (_tiny, _huge) may overflow
        # or lose bits to underflow along the nodes, so they keep every node
        reach = np.exp(log_reach)
        self._tiny = 1e4 * np.finfo(float).tiny * reach
        self._huge = np.finfo(float).max / (4.0 * reach)

    def _orders(self, orders):
        """The parameter sets to evaluate, a list.  The profiles do not depend
        on the exponents, so one pass serves every set with this evaluator's
        ``t_avg``, ``aperture`` and ``radius``."""
        p = self.params
        for q in orders:
            if (q.t_avg, q.aperture, q.radius) != (p.t_avg, p.aperture, p.radius):
                raise ValueError("orders may differ from the evaluator only in u, n0 and s")
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

    def _profiles(self, adapted, rates):
        """Saturated averaged profiles (m1, m2), followed with ``rates`` by
        their flow derivatives.

        The raw time averages approach their limit values only at rate
        exp(-theta t_avg), so they are passed through a monotone ramp that
        saturates at the level the averaging time guarantees; this widens
        the constant-order plateaus to the declared cones while keeping the
        flow monotonicity exact (chain rule with nonnegative slope).
        """
        eps = self.SATURATION
        raw = self._averages(adapted, rates)
        x = [(m - eps) / (1.0 - 2.0 * eps) for m in raw[:2]]
        return (tuple(smoothstep(v) for v in x)
                + tuple(smoothstep_slope(v) / (1.0 - 2.0 * eps) * dm for v, dm in zip(x, raw[2:])))

    #: rows per gemv of _averages, a multiple of 4 (see there).  A run of
    #: blocks holds up to BLOCK_ROWS + 3 rows over all nodes (see _plan),
    #: and so each work array of _average 67 x 384 x 8 B = 206 KB, past
    #: glibc's initial 128 KB mmap threshold.  OpenBLAS still runs each
    #: gemv on one thread: it splits none below about 460,800 entries
    #: (0.3.31: 1,199 rows of 384 nodes stay whole, 1,201 do not)
    BLOCK_ROWS = 64
    #: rows whose windows are computed at once, which bounds the windows'
    #: temporaries; a pass keeps only the four window bounds of each row
    WINDOW_ROWS = 2048
    #: rows are sorted by their m1 window start in bands of this many
    #: nodes, and by their m2 window start within a band
    SORT_BAND = 16
    #: nodes added on each side of a row's closed-form transition window
    WINDOW_MARGIN = 2

    def _averages(self, adapted, rates):
        """Time-averaged bump profiles (m1, m2) of a batch of frame triples,
        followed with ``rates`` by their flow derivatives, from one pass.
        :meth:`_average` reduces each row over all nodes with ``@
        self._weights``, exact 0.0 and 1.0 outside its windows, so the
        profiles equal ``tests/oracles.py`` ``raw_profiles_one_shot`` bit for
        bit, on one BLAS thread or two, by the blocking rule of OpenBLAS:
        gemv reduces rows in groups of 4 and the last ``n mod 4`` in a
        remainder kernel that rounds differently.  So every gemv holds a
        multiple of 4 rows, the last block padded with zero rows, and a
        row's profiles do not depend on its batch or its place in it; only
        a pass of one row keeps numpy's dot, which rounds differently."""
        d = np.asarray(adapted, dtype=float)
        batch = d.reshape(-1, 3)
        out = [np.empty(len(batch)) for _ in range(4 if rates else 2)]
        if len(batch):
            self._average(batch, out)
        return tuple(o.reshape(d.shape[:-1]) for o in out)

    def _windows(self, batch):
        """Nodes ``[start, stop)`` outside which the bumps of m1 and m2 are
        exactly 0 (before) or 1 (after), as four rows of node indices: the
        starts of m1 and m2, then their stops.

        The fraction ``a^2 g^2 / (a^2 g^2 + e^2 g + b^2)`` equals ``c`` at
        the positive root of ``(1 - c) a^2 g^2 - c e^2 g - c b^2``; the
        fraction of ``b^2`` at ``g`` is that of ``a^2`` at ``1 / g`` with
        ``a`` and ``b`` swapped.  The roots for ``c = lo`` and ``1 - lo``
        are taken in ``log g`` from the squares divided by the row
        maximum, so nothing overflows, and widened by WINDOW_MARGIN nodes;
        each root takes its complement ``1 - c`` as given, since ``1 - (1 -
        lo)`` is 0.0 for a tiny ``lo``.  A root that is 0/0 (a row on an
        axis) or a row whose largest square could overflow or lose bits to
        underflow at some node opens the window to every node.  The rows
        are taken WINDOW_ROWS at a time.
        """
        lo = self._cone2
        windows = np.empty((4, len(batch)), dtype=np.intp)
        for r0 in range(0, len(batch), self.WINDOW_ROWS):
            sq = batch[r0:r0 + self.WINDOW_ROWS] ** 2
            top = np.maximum(np.maximum(sq[:, 0], sq[:, 1]), sq[:, 2])
            with np.errstate(all="ignore"):
                a, b, e = (sq / top[:, None]).T
                log_a, log_b = np.log(a), np.log(b)
                disc = 4.0 * lo * (1.0 - lo) * a * b
                low, high = (np.log(c * e + np.sqrt((c * e) ** 2 + disc)) - math.log(2.0 * rest)
                             for c, rest in ((lo, 1.0 - lo), (1.0 - lo, lo)))
                # starts of m1 and m2, then their stops
                ends = np.stack([log_b - high, low - log_a, log_b - low, high - log_a])
            ends[:, ~((top > self._tiny) & (top < self._huge))] = np.nan
            # a NaN edge opens the window to every node
            np.fmax(ends[:2], -np.inf, out=ends[:2])
            np.fmin(ends[2:], np.inf, out=ends[2:])
            windows[:, r0:r0 + len(sq)] = np.searchsorted(self._log_ga, ends)
        start, stop = windows[:2], windows[2:]
        start -= self.WINDOW_MARGIN
        stop += self.WINDOW_MARGIN
        np.maximum(start, 0, out=start)
        np.minimum(stop, len(self._nodes), out=stop)
        return windows

    def _plan(self, windows):
        """The row order, block bounds and runs of :meth:`_average` for rows
        with these :meth:`_windows`.  The rows are sorted (see SORT_BAND)
        and cut into blocks of BLOCK_ROWS; blocks join a run, ``[first
        block, last block + 1, m1 start, m2 start, m1 stop, m2 stop]``,
        while its rows times the union of their windows fit BLOCK_ROWS + 3
        rows over all nodes.  The derivatives are reduced over their run's
        window, so this budget fixes their last bits."""
        n_nodes = len(self._nodes)
        n = windows.shape[1]
        order = np.arange(n)
        if n > self.BLOCK_ROWS:
            order = np.argsort(windows[0] // self.SORT_BAND * n_nodes + windows[1], kind="stable")
        bounds = list(range(0, n, self.BLOCK_ROWS)) + [n]
        first = np.minimum.reduceat(windows[:2, order], bounds[:-1], axis=1).T.tolist()
        last = np.maximum.reduceat(windows[2:, order], bounds[:-1], axis=1).T.tolist()
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
        return order, bounds, runs

    def _average(self, batch, m):
        """Write the raw profiles of the rows ``batch`` of frame triples
        into ``m[0]`` and ``m[1]`` (see :meth:`_averages`) and, when
        ``m`` holds four arrays, their flow derivatives into ``m[2]`` and
        ``m[3]``, one run of blocks of :meth:`_plan` at a time.

        With ``A = a^2 g``, ``B = b^2 / g`` and ``T = A + B + e^2`` the
        fractions move as ``d(A/T)/dt = 2 theta (A/T) (2B + e^2) / T`` and
        ``d(B/T)/dt = -2 theta (B/T) (2A + e^2) / T``; each node's bump
        moves as that times ``smoothstep_slope`` of its argument over the
        ramp's span.  The slope is exactly 0 outside the windows, so each
        derivative is reduced over its run's window alone.
        """
        n = len(batch)
        n_nodes = len(self._nodes)
        order, bounds, runs = self._plan(self._windows(batch))
        lo, span = self._cone2, 1.0 - 2.0 * self._cone2
        rates = len(m) > 2
        padded = n if n == 1 else n + -n % 4       # the pass's rows with their pad
        work = [np.empty(min(padded, self.BLOCK_ROWS + 3) * n_nodes) for _ in range(len(m) + 2)]

        def view(k, shape):
            return work[k][:shape[0] * shape[1]].reshape(shape)

        for i0, i1, p0, q0, p1, q1 in runs:
            rows = order[bounds[i0]:bounds[i1]]
            blk = batch[rows] ** 2
            u0, u1 = min(p0, q0), max(p1, q1)
            g = self._ga[u0:u1]
            a2, b2, tot = (view(k, (len(rows), u1 - u0)) for k in range(3))
            np.multiply(blk[:, 0:1], g, out=a2)
            np.divide(blk[:, 1:2], g, out=b2)
            np.add(a2, b2, out=tot)
            tot += blk[:, 2:3]
            # the bumps' arguments, compacted to their windows
            c1, c2 = slice(p0 - u0, p1 - u0), slice(q0 - u0, q1 - u0)
            x1 = view(3, (len(rows), p1 - p0))
            np.divide(b2[:, c1], tot[:, c1], out=x1)
            if rates:
                # (B/T) (2A + e^2) / T on m1's window, (2B + e^2) / T on
                # m2's, times A/T once x2 holds it
                dx1, dx2 = view(4, x1.shape), view(5, (len(rows), q1 - q0))
                for dx, other, c in ((dx1, a2, c1), (dx2, b2, c2)):
                    np.multiply(other[:, c], 2.0, out=dx)
                    dx += blk[:, 2:3]
                    dx /= tot[:, c]
                dx1 *= x1
            x2 = view(1, (len(rows), q1 - q0))
            np.divide(a2[:, c2], tot[:, c2], out=x2)
            if rates:
                dx2 *= x2
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
                if rates:
                    # the slope up to its factor 30, x^2 (1 - x)^2
                    dx = (dx1, dx2)[profile]
                    np.subtract(1.0, x, out=poly)
                    poly *= x
                    poly *= poly
                    dx *= poly
                # one gemv per block over all nodes, of 4k rows (one row: a
                # dot), the last block padded with zero rows whose outputs
                # are dropped; the saturated ends outlast a block of its size
                got, size = np.empty(len(rows) + 3), None
                for b0, b1 in zip(bounds[i0:i1], bounds[i0 + 1:i1 + 1]):
                    k0, k1 = b0 - bounds[i0], b1 - bounds[i0]
                    if size != k1 - k0:
                        size = k1 - k0
                        vals = view(2, (size if n == 1 else size + -size % 4, n_nodes))
                        vals[:, :w0] = 0.0
                        vals[:, w1:] = 1.0
                        vals[size:] = 0.0
                    vals[:size, w0:w1] = bump[k0:k1]
                    np.matmul(vals, self._weights, out=got[k0:k0 + len(vals)])
                m[profile][rows] = got[:len(rows)]
                if rates:
                    m[2 + profile][rows] = dx @ self._weights[w0:w1]
        for dm in m[2:]:
            dm *= 60.0 * self.theta / span

    def _ramp(self, r):
        # radial cutoff: 0 below 1/2, 1 above 1, smooth in log r
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0.0
        out[pos] = smoothstep(1.0 + np.log2(r[pos]))
        return out

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

    def _one_pass(self, d, live, rates):
        """The profiles of the rows ``d[live]``, from one pass over them."""
        return self._profiles(d[live], rates)

    def _order_and_escape(self, adapted, orders, rates, profiles):
        """Order function m and escape function G of each set in ``orders``,
        stacked on a leading axis, and with ``rates`` X(G); ``profiles(d, live,
        rates)`` gives the profiles of the live rows ``d[live]``: `_one_pass`."""
        d = np.asarray(adapted, dtype=float)
        r = np.linalg.norm(d, axis=-1)
        ramp = self._ramp(r)
        m = np.zeros((len(orders),) + r.shape)
        live = ramp > 0.0
        if rates:
            dm = np.zeros_like(m)
            with np.errstate(invalid="ignore", divide="ignore"):
                fa, fb, fe = np.moveaxis(d * d, -1, 0) / (r * r)
            rate = self.theta * (fa - fb)              # d log|xi| / dt
            dramp = np.zeros_like(r)
            dramp[live] = smoothstep_slope(1.0 + np.log2(r[live])) * rate[live] / math.log(2.0)
        if np.any(live):
            m1, m2, *dm12 = profiles(d, live, rates)
            for k, p in enumerate(orders):
                level = p.s + (p.n0 - p.s) * m1 + (p.u - p.n0) * m2
                m[k, live] = ramp[live] * level
                if rates:
                    dm[k, live] = (dramp[live] * level
                                   + ramp[live] * ((p.n0 - p.s) * dm12[0] + (p.u - p.n0) * dm12[1]))
        f = self.radial_interpolant(d)
        g = m * 0.5 * np.log1p(np.asarray(f) ** 2)
        if not rates:
            return m, g
        # f = w0 |e| + (1 - w0) |xi| with 1 - w0 = smoothstep(y), y linear
        # in rho^2, d rho^2 / dt = 2 rate e^2 / |xi|^2 and |e| conserved
        y = (fa + fb - self._cone2) / (self._blend2 - self._cone2)
        dy = 2.0 * rate * fe / (self._blend2 - self._cone2)
        df = np.where(r > 0.0, smoothstep_slope(y) * dy * (r - np.abs(d[..., 2]))
                      + smoothstep(y) * rate * r, 0.0)
        # + 0.0: where G is 0 near the flow, X(G) is +0.0, as a difference
        # quotient of G gives, not -0.0
        return m, g, dm * (0.5 * np.log1p(f * f)) + m * (f * df / (1.0 + f * f)) + 0.0

    def escape_value(self, adapted, orders):
        """G = m * log sqrt(1 + f^2) of each set in ``orders`` (see
        :meth:`_orders`), one row per set, from one profile pass."""
        return self._order_and_escape(adapted, self._orders(orders), False, self._one_pass)[1]

    def escape_derivative_adapted(self, adapted, orders):
        """X(G): the flow derivative of G along the closed-form covector
        flow, exact for the implemented G.

        The quadrature profiles are differentiated node by node (see
        :meth:`_average`); the chain rule then runs through the saturation
        ramp of :meth:`_profiles`, the radial cutoff with ``d|xi|/dt =
        theta (a^2 - b^2) / |xi|``, the radial interpolant with ``d rho^2 /
        dt = 2 theta (a^2 - b^2) e^2 / |xi|^4`` and ``G = m * log sqrt(1 +
        f^2)``.  Exact transport of the equivariant components makes this a
        derivative along the lifted flow itself.  ``orders`` as in
        :meth:`escape_value`: one row per set, one profile pass for all.
        """
        return self._order_and_escape(adapted, self._orders(orders), True, self._one_pass)[2]

    def escape_derivatives(self, qs):
        """d/dt G(M_t q) at t = 0 for each CotangentPoint of qs: Richardson
        differences of one-point `escape_value` calls along the lifted flow,
        once per (base point, t)."""
        lift = functools.cache(lambda base, t: cotangent.lifted_flow(self.flow, base, t))

        def g_at(q, t):
            q1 = lift(q.base, t)(q)
            return float(self.escape_value(cotangent.adapted_components(self.flow, q1),
                                           [self.params])[0])

        return [float(_richardson(lambda t: g_at(q, t))) for q in qs]

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


def verify_escape_estimates(escape: EscapeFunction, sample_count, seed, keep_rows, orders):
    """Sample the decay estimates over |xi| in [R, RADIUS_SPAN * R].

    Checks (a) strict uniform decay outside the neutral cone and (b) global
    nonpositivity at large radius, and reports the measured proportionality
    constant of the decay bound.  Failing samples are counted in
    ``violations``; so is each of the first AUDIT_SAMPLES samples whose
    exact X(G) differs from a Richardson difference of
    :meth:`EscapeFunction.escape_value` along the flow.  The caller decides
    the verdict.  One report per set of ``orders`` (see
    :meth:`EscapeFunction._orders`), all from the same samples and profile
    passes (one over all samples, four over the audited ones, plus one for
    the first ``keep_rows``, the reports' CSV rows).
    """
    sets = escape._orders(orders)
    if RADIUS_SPAN * escape.params.radius >= math.sqrt(escape._huge):
        raise WeightOverflow(
            f"the samples reach |xi| = {RADIUS_SPAN * escape.params.radius:.4g}, whose "
            "squares could overflow along the time average; reduce the radius")
    rng = np.random.default_rng(seed)
    # unit directions scaled in place: no second batch-sized copy
    adapted = rng.normal(size=(sample_count, 3))
    adapted /= np.linalg.norm(adapted, axis=1, keepdims=True)
    adapted *= escape.params.radius * RADIUS_SPAN ** rng.random(sample_count)[:, None]

    xgs = escape.escape_derivative_adapted(adapted, sets)
    labels = escape.cone_label(adapted)
    outside = labels != "0"
    # X(G) is the derivative of the G that escape_value gives
    audit = adapted[:AUDIT_SAMPLES]
    fd = _richardson(lambda t: escape.escape_value(escape.covector_flow(audit, t), sets))
    off = np.zeros(xgs.shape, dtype=bool)
    off[:, :len(audit)] = np.abs(fd - xgs[:, :len(audit)]) > AUDIT_TOL * (1.0 + np.abs(fd))
    kept = adapted[:keep_rows]          # only these samples become CSV rows
    ms, gs = escape._order_and_escape(kept, sets, False, escape._one_pass)
    reports = []
    for p, xg, m, g, mismatch in zip(sets, xgs, ms, gs, off):
        decay_bound = 0.0 - float(np.max(xg[outside]))      # +0.0 when G = 0
        bad = (outside & (xg >= 0.0)) | (xg > NONPOSITIVE_TOL) | mismatch
        reports.append(EscapeReport(
            c_measured=decay_bound / min(abs(p.u), p.s), decay_bound=decay_bound,
            max_everywhere=float(np.max(xg)), violations=int(np.count_nonzero(bad)),
            rows=list(zip(*kept.T, m, g, xg, labels))))
    return reports
