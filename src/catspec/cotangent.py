"""Cotangent lift of the suspension flow.

Covectors are carried by the transpose-inverse of the flow differential,
computed from the exact block structure (integer matrix powers for the
horizontal part, a time-change ratio for the vertical part).  The module
also fixes the smooth norm used everywhere else: Euclidean length of the
flow-equivariant frame components returned by :func:`adapted_components`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BasePoint, MappingTorusFlow


@dataclass(frozen=True)
class CotangentPoint:
    base: BasePoint
    xi_x: tuple
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "xi_x", (float(self.xi_x[0]), float(self.xi_x[1])))
        object.__setattr__(self, "eta", float(self.eta))
        if not np.all(np.isfinite(self.covector())):
            raise ValueError("covector components must be finite")

    def covector(self):
        return np.array([self.xi_x[0], self.xi_x[1], self.eta])


def h0(flow: MappingTorusFlow, q: CotangentPoint) -> float:
    """Principal symbol: pairing of the covector with the vector field."""
    return float(flow.time_change(q.base.tau) * q.eta)


def horizontal_components(flow: MappingTorusFlow, xi_x):
    """Coefficients (a, b) of xi_x in the (unstable, stable) coframe: a
    (..., 2) array for a (..., 2) covector or batch, solved matrix by matrix
    so each row equals the call on that row alone.
    """
    cu, cs = flow.cat.coframe_u, flow.cat.coframe_s
    m = np.array([[cu[0], cs[0]], [cu[1], cs[1]]])
    xi = np.asarray(xi_x, dtype=float)
    return np.linalg.solve(np.broadcast_to(m, xi.shape[:-1] + (2, 2)), xi[..., None])[..., 0]


def adapted_components(flow: MappingTorusFlow, q: CotangentPoint):
    """Flow-equivariant frame components (a~, b~, e~) of a covector.

    The horizontal coefficients are rescaled by the rectified-time fraction
    so they are continuous across the seam and evolve exactly like
    exp(+-theta t) under the lifted flow; the third component is the
    conserved symbol value.  The declared norm |xi| is the Euclidean length
    of this triple.
    """
    a, b = horizontal_components(flow, q.xi_x)
    frac = flow.time_change.rectified(q.base.tau) / flow.period
    lu = flow.cat.lambda_u
    return np.array([a * lu**frac, b * lu**(-frac),
                     flow.time_change(q.base.tau) * q.eta])


def lifted_flow(flow: MappingTorusFlow, base: BasePoint, t: float):
    """Canonical lift of the time-t flow from ``base``, a function of the
    covector there: base moves by the flow, covector by (D phi_{-t})^T."""
    tau1, crossings = flow.flow_time(base, t)
    x = flow.cat.power(crossings) @ np.array(base.x)
    base1 = BasePoint((x[0], x[1]), tau1)
    # transpose inverse of the block differential, exact in the crossing count
    at_inv = flow.cat.power(-crossings).astype(float).T
    c_start, c_end = flow.time_change(base.tau), flow.time_change(tau1)

    def lift(q: CotangentPoint) -> CotangentPoint:
        xi1 = at_inv @ np.asarray(q.xi_x)
        return CotangentPoint(base1, (xi1[0], xi1[1]), q.eta * c_start / c_end)

    return lift
