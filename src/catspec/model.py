"""Hyperbolic base model: time-changed suspension of a toral automorphism.

The manifold is the mapping torus of an integer hyperbolic matrix ``A``,
i.e. ``T^2 x [0,1)`` glued by ``(x, 1) ~ (A x, 0)``.  The flow moves only
the suspension coordinate, ``tau' = c(tau)`` with a strictly positive
1-periodic trigonometric polynomial ``c``, so horizontal coordinates jump
by ``A`` exactly at upward seam crossings (``A^-1`` downward).  The time-t
map is closed form: shift the rectified time ``s(tau) = int_0^tau dt/c``
by ``t`` and invert it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import CatspecError, NonConvergence

_TAU_GRID = 4096
#: flow times of the fit in `MappingTorusFlow.measure_hyperbolicity`, in
#: units of the return time, so that a fit crosses at most 5 seams.  Just
#: short of whole return times some orbits have not crossed their last seam,
#: so c_hyp also bounds the slowest contraction between the sampled times
HYPERBOLICITY_TIMES = (0.49, 0.98, 1.96, 2.94, 4.9)
#: sampled base points of that fit
HYPERBOLICITY_POINTS = 40


class TimeChange:
    """Strictly positive 1-periodic trigonometric polynomial c(tau).

    c(tau) = c0 + sum_d cos_coeffs[d-1]*cos(2 pi d tau)
                + sum_d sin_coeffs[d-1]*sin(2 pi d tau)
    """

    def __init__(self, c0, cos_coeffs, sin_coeffs):
        self.c0 = float(c0)
        self.cos_coeffs = tuple(float(a) for a in cos_coeffs)
        self.sin_coeffs = tuple(float(b) for b in sin_coeffs)
        grid = np.linspace(0.0, 1.0, _TAU_GRID, endpoint=False)
        cmin = float(np.min(self(grid)))
        if cmin <= 0.0:
            raise ValueError(f"time change must stay positive (min on grid {cmin:.3g})")
        # Chebyshev antiderivative of 1/c gives the rectified-time map.
        interp = _cheb.Chebyshev.interpolate(lambda t: 1.0 / self(t), 96, domain=[0.0, 1.0])
        self._phi = interp.integ(lbnd=0.0)
        self.period = float(self._phi(1.0))

    @property
    def degree(self):
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.full(tau.shape, self.c0)
        for d, a in enumerate(self.cos_coeffs, start=1):
            out = out + a * np.cos(2.0 * np.pi * d * tau)
        for d, b in enumerate(self.sin_coeffs, start=1):
            out = out + b * np.sin(2.0 * np.pi * d * tau)
        return out if out.shape else float(out)

    def fourier_coefficient(self, d):
        """Coefficient of exp(2 pi i d tau) in c."""
        d = int(d)
        if d == 0:
            return complex(self.c0)
        a = self.cos_coeffs[abs(d) - 1] if abs(d) <= len(self.cos_coeffs) else 0.0
        b = self.sin_coeffs[abs(d) - 1] if abs(d) <= len(self.sin_coeffs) else 0.0
        return complex(a / 2.0, -b / 2.0) if d > 0 else complex(a / 2.0, b / 2.0)

    def rectified(self, tau):
        """Rectified time s(tau) = int_0^tau dt/c(t), extended to the real line."""
        tau = np.asarray(tau, dtype=float)
        base = np.floor(tau)
        out = base * self.period + self._phi(tau - base)
        return out if out.shape else float(out)

    def unrectify(self, s):
        """Inverse of :meth:`rectified` (Newton iteration, monotone map)."""
        s = np.asarray(s, dtype=float)
        wind = np.floor(s / self.period)
        frac = s - wind * self.period
        tau = np.clip(frac / self.period, 0.0, 1.0)
        for _ in range(60):
            res = self._phi(tau) - frac
            step = res * self(tau)
            tau = np.clip(tau - step, 0.0, 1.0)
            if np.max(np.abs(step)) < 1e-15:
                break
        out = wind + tau
        return out if out.shape else float(out)


class CatMap:
    """Integer hyperbolic torus automorphism with its eigen-structure."""

    def __init__(self, a11, a12, a21, a22):
        self.matrix = np.array([[a11, a12], [a21, a22]], dtype=np.int64)
        det = a11 * a22 - a12 * a21
        if det != 1:
            raise ValueError(f"matrix must have determinant 1, got {det}")
        tr = a11 + a22
        if abs(tr) <= 2:
            raise ValueError(f"matrix must be hyperbolic (|trace| > 2), got trace {tr}")
        disc = np.sqrt(tr * tr - 4.0)
        self.lambda_u = (tr + disc) / 2.0 if tr > 0 else (tr - disc) / 2.0
        self.lambda_s = 1.0 / self.lambda_u
        self.e_u = self._eigvec(self.lambda_u)
        self.e_s = self._eigvec(self.lambda_s)
        # unit covectors annihilating e_u resp. e_s (cotangent frame)
        self.coframe_u = self._perp(self.e_u)
        self.coframe_s = self._perp(self.e_s)

    def _eigvec(self, lam):
        a = self.matrix.astype(float)
        v = np.array([a[0, 1], lam - a[0, 0]])
        if np.linalg.norm(v) < 1e-12:
            v = np.array([lam - a[1, 1], a[1, 0]])
        v = v / np.linalg.norm(v)
        if v[0] < 0 or (v[0] == 0 and v[1] < 0):
            v = -v
        return v

    @staticmethod
    def _perp(v):
        w = np.array([-v[1], v[0]])
        if w[0] < 0 or (w[0] == 0 and w[1] < 0):
            w = -w
        return w

    def power(self, p):
        """Integer matrix A^p (p may be negative; det 1 keeps it integral), by
        repeated squaring in Python ints.  Raises CatspecError as soon as an
        entry of a partial power A^k, |k| <= |p|, leaves int64."""
        p = int(p)
        (a, b), (c, d) = self.matrix.tolist()
        step = (a, b, c, d) if p >= 0 else (d, -b, -c, a)
        m = (1, 0, 0, 1)
        for bit in bin(abs(p))[2:]:
            m = _product(m, m)
            if bit == "1":
                m = _product(m, step)
            if max(map(abs, m)) >= 1 << 63:
                raise CatspecError(f"A^{p} leaves int64: {p} seam crossings are too many")
        return np.array(m, dtype=np.int64).reshape(2, 2)


def _product(x, y):
    """The 2x2 product x y of row-major 4-tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


@dataclass(frozen=True)
class BasePoint:
    """Point on the mapping torus in fundamental-domain coordinates."""

    x: tuple
    tau: float

    def __post_init__(self):
        x = (float(self.x[0]) % 1.0, float(self.x[1]) % 1.0)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "tau", float(self.tau) % 1.0)


@dataclass
class MappingTorusFlow:
    """The suspension flow with all derived structure constants."""

    cat: CatMap
    time_change: TimeChange

    def __post_init__(self):
        self.period = self.time_change.period
        # per-unit-rectified-time expansion rate of the horizontal splitting
        self.theta = np.log(self.cat.lambda_u) / self.period

    # -- flow maps -------------------------------------------------------

    def flow_time(self, p: BasePoint, t: float):
        """Return (end tau in [0,1), signed seam-crossing count)."""
        t = float(t)
        if not np.isfinite(t):
            raise NonConvergence(f"flow time must be finite, got {t}")
        lifted = self.time_change.unrectify(self.time_change.rectified(p.tau) + t)
        # endpoints within inversion tolerance of the seam count as crossed
        nearest = np.round(lifted)
        if abs(lifted - nearest) < 1e-9:
            lifted = float(nearest)
        crossings = int(np.floor(lifted))
        return lifted - crossings, crossings

    def differential(self, p: BasePoint, t: float):
        """3x3 derivative of the time-t flow map at p."""
        tau1, crossings = self.flow_time(p, t)
        d = np.zeros((3, 3))
        d[:2, :2] = self.cat.power(crossings).astype(float)
        d[2, 2] = self.time_change(tau1) / self.time_change(p.tau)
        return d

    # -- measured hyperbolicity ------------------------------------------

    def measure_hyperbolicity(self, seed):
        """Fit |D phi_t e_s| ~ c_hyp * exp(-theta t) over the orbits of
        HYPERBOLICITY_POINTS sampled base points, at the times
        HYPERBOLICITY_TIMES times the return time.

        Returns (c_hyp, theta_fit).  The fitted rate should match
        log(lambda_u)/period.
        """
        rng = np.random.default_rng(seed)
        e_s3 = np.array([self.cat.e_s[0], self.cat.e_s[1], 0.0])
        ts, logs = [], []
        for _ in range(HYPERBOLICITY_POINTS):
            p = BasePoint((rng.random(), rng.random()), rng.random())
            for t in HYPERBOLICITY_TIMES:
                g = np.linalg.norm(self.differential(p, t * self.period) @ e_s3)
                ts.append(t)
                logs.append(np.log(g))
        # fitted in units of the return time, which may lie far from 1
        ts = np.asarray(ts)
        logs = np.asarray(logs)
        slope, intercept = np.polyfit(ts, logs, 1)
        resid = logs - (slope * ts + intercept)
        c_hyp = float(np.exp(intercept + np.max(resid)))
        return c_hyp, -float(slope) / self.period
