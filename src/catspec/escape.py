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

    def __init__(self, flow: MappingTorusFlow, params: OrderParams,
                 panels: int = 24, nodes_per_panel: int = 16):
        self.flow = flow
        self.params = params
        self.theta = flow.theta
        sa = np.sin(params.aperture)
        self._cone2 = sa * sa                      # squared sine of cone half-angle
        self._blend2 = np.sin(2.0 * params.aperture) ** 2
        self._nodes, self._weights = composite_gauss_legendre(
            params.t_avg, panels, nodes_per_panel)

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

    def _saturate(self, m):
        eps = self.SATURATION
        return smoothstep((m - eps) / (1.0 - 2.0 * eps))

    def _raw_profiles(self, adapted):
        """Time-averaged bump profiles for a batch of frame triples."""
        d = np.asarray(adapted, dtype=float)
        batch = d.reshape(-1, 3)
        # evolve squared components along the quadrature nodes; bumps only
        # need squared fractions, so normalization is never materialized
        t = self._nodes
        ga = np.exp(2.0 * self.theta * t)
        a2 = batch[:, 0:1] ** 2 * ga[None, :]
        b2 = batch[:, 1:2] ** 2 / ga[None, :]
        e2 = batch[:, 2:3] ** 2 * np.ones_like(t)[None, :]
        tot = a2 + b2 + e2
        fa, fb = a2 / tot, b2 / tot
        lo, span = self._cone2, 1.0 - 2.0 * self._cone2
        m1 = (1.0 - smoothstep((fb - lo) / span)) @ self._weights
        m2 = smoothstep((fa - lo) / span) @ self._weights
        shape = d.shape[:-1]
        return m1.reshape(shape), m2.reshape(shape)

    def _profiles(self, adapted):
        """Saturated averaged profiles (m1, m2).

        The raw time averages approach their limit values only at rate
        exp(-theta t_avg), so they are passed through a monotone ramp that
        saturates at the level the averaging time guarantees; this widens
        the constant-order plateaus to the declared cones while keeping the
        flow monotonicity exact (chain rule with nonnegative slope).
        """
        m1, m2 = self._raw_profiles(adapted)
        return self._saturate(m1), self._saturate(m2)

    def order_profile(self, adapted):
        """Direction-only part of the order function, in [u, s]."""
        p = self.params
        m1, m2 = self._profiles(adapted)
        return p.s + (p.n0 - p.s) * m1 + (p.u - p.n0) * m2

    def _ramp(self, r):
        # radial cutoff: 0 below 1/2, 1 above 1, smooth in log r
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0.0
        out[pos] = smoothstep(1.0 + np.log2(r[pos]))
        return out

    def order_value(self, adapted):
        """Full order function m: radial cutoff times the direction profile."""
        d = np.asarray(adapted, dtype=float)
        r = np.linalg.norm(d, axis=-1)
        ramp = self._ramp(r)
        out = np.zeros_like(r)
        live = ramp > 0.0
        if np.any(live):
            out[live] = ramp[live] * self.order_profile(d[live])
        return out if out.shape else float(out)

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

    def escape_value(self, adapted):
        """G = m * log sqrt(1 + f^2)."""
        d = np.asarray(adapted, dtype=float)
        m = self.order_value(d)
        f = self.radial_interpolant(d)
        g = m * 0.5 * np.log1p(np.asarray(f) ** 2)
        return g if np.ndim(g) else float(g)

    def escape_derivative_adapted(self, adapted, step=1e-4):
        """Flow derivative of G along the closed-form covector flow.

        Centered differences with one Richardson step; exact transport of
        the equivariant components makes this a derivative along the lifted
        flow itself.
        """
        d = np.asarray(adapted, dtype=float)

        def diff(h):
            return (self.escape_value(self.covector_flow(d, h))
                    - self.escape_value(self.covector_flow(d, -h))) / (2.0 * h)

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
                            nonpositive_tol=1e-9):
    """Sample the decay estimates over |xi| in [R, radius_span*R].

    Checks (a) strict uniform decay outside the neutral cone and (b) global
    nonpositivity at large radius, and reports the measured proportionality
    constant of the decay bound.  Failing samples are counted in
    ``violations``; the caller decides the verdict.
    """
    p = escape.params
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=(sample_count, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    radii = p.radius * radius_span ** rng.random(sample_count)
    adapted = nu * radii[:, None]

    xg = escape.escape_derivative_adapted(adapted)
    m = escape.order_value(adapted)
    g = escape.escape_value(adapted)
    labels = escape.cone_label(adapted)
    outside = labels != "0"

    max_outside = float(np.max(xg[outside]))
    max_everywhere = float(np.max(xg))
    decay_bound = -max_outside
    c_measured = decay_bound / min(abs(p.u), p.s)

    bad = (outside & (xg >= 0.0)) | (xg > nonpositive_tol)
    rows = [(adapted[i, 0], adapted[i, 1], adapted[i, 2], m[i], g[i], xg[i], labels[i])
            for i in range(min(sample_count, keep_rows))]
    return EscapeReport(
        c_measured=c_measured, decay_bound=decay_bound,
        max_everywhere=max_everywhere,
        violations=int(np.count_nonzero(bad)), rows=rows)
