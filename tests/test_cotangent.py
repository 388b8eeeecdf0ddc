import numpy as np
import pytest

from catspec import cotangent as ct
from catspec.model import BasePoint
from oracles import (anosov_one_form, anosov_splitting, dual_splitting, from_adapted,
                     trapped_point)


def test_symbol_values(flow, flow_const):
    p = BasePoint((0.1, 0.2), 0.0)
    assert ct.h0(flow_const, ct.CotangentPoint(p, (0.4, -0.2), 2.0)) == pytest.approx(2.0)
    # the bounded-orbit covector has symbol value E
    for E in (1.0, -3.5):
        q = trapped_point(flow, p, E)
        assert ct.h0(flow, q) == pytest.approx(E, abs=1e-13)
    # horizontal covectors are annihilated
    assert ct.h0(flow, ct.CotangentPoint(p, (1.0, 2.0), 0.0)) == 0.0


def test_trapped_point_values(flow, flow_const):
    p = BasePoint((0.0, 0.0), 0.0)
    assert np.allclose(trapped_point(flow_const, p, 1.0).covector(), [0, 0, 1])
    assert np.allclose(trapped_point(flow, p, 0.0).covector(), [0, 0, 0])
    assert np.allclose(trapped_point(flow, p, 2.0).covector(), [0, 0, 2 / 1.2])


def test_lifted_flow_symbol_conservation(flow):
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = ct.CotangentPoint(BasePoint((rng.random(), rng.random()), rng.random()),
                              tuple(rng.normal(size=2)), rng.normal())
        e0 = ct.h0(flow, q)
        for t in (-5.0, 0.7, 5.0):
            assert abs(ct.h0(flow, ct.lifted_flow(flow, q, t)) - e0) < 1e-9


def test_lifted_flow_keeps_trapped_section(flow):
    p = BasePoint((0.3, 0.6), 0.45)
    q = trapped_point(flow, p, 1.0)
    for t in (0.8, 2.5, -1.7):
        qt = ct.lifted_flow(flow, q, t)
        alpha = anosov_one_form(flow, qt.base)
        assert np.max(np.abs(qt.covector() - alpha)) < 1e-12


def test_lifted_flow_vertical_invariance(flow_const):
    q = ct.CotangentPoint(BasePoint((0.2, 0.2), 0.0), (0.0, 0.0), 1.5)
    qt = ct.lifted_flow(flow_const, q, 1.0)
    assert np.allclose(qt.covector(), q.covector(), atol=1e-12)


def test_lifted_flow_linearity_in_fibers(flow):
    q = ct.CotangentPoint(BasePoint((0.7, 0.3), 0.2), (0.5, -1.0), 0.8)
    lam = 3.7
    scaled = ct.CotangentPoint(q.base, (lam * 0.5, lam * -1.0), lam * 0.8)
    a = ct.lifted_flow(flow, q, 2.1)
    b = ct.lifted_flow(flow, scaled, 2.1)
    assert np.allclose(lam * a.covector(), b.covector(), atol=1e-12)


def test_stable_coframe_decay_rate(flow):
    # E*_s covector contracts by lambda_s per crossing
    p = BasePoint((0.25, 0.75), 0.0)
    cs = flow.cat.coframe_s
    q = ct.CotangentPoint(p, (cs[0], cs[1]), 0.0)
    t = 3.0 * flow.period
    qt = ct.lifted_flow(flow, q, t)
    _, crossings = flow.flow_time(p, t)
    ratio = np.linalg.norm(np.asarray(qt.xi_x)) / np.linalg.norm(cs)
    assert ratio == pytest.approx(flow.cat.lambda_s ** crossings, rel=1e-10)


def test_dichotomy_rates_within_tolerance(flow):
    # measured per-rectified-time rates on both hyperbolic coframes
    p = BasePoint((0.1, 0.9), 0.3)
    t = 4.0 * flow.period
    for cof, sign in ((flow.cat.coframe_s, -1.0), (flow.cat.coframe_u, 1.0)):
        q = ct.CotangentPoint(p, (cof[0], cof[1]), 0.0)
        qt = ct.lifted_flow(flow, q, t)
        rate = np.log(np.linalg.norm(np.asarray(qt.xi_x))) / t
        target = sign * np.log(flow.cat.lambda_u) / flow.period
        assert abs(rate - target) / abs(target) < 0.05


def test_dual_splitting_pairings(flow):
    p = BasePoint((0.6, 0.2), 0.8)
    cu, cs, c0 = dual_splitting(flow, p)
    e_u, e_s, e_0 = anosov_splitting(flow, p)
    assert abs(cu @ e_u) < 1e-12 and abs(cu @ e_0) < 1e-12
    assert abs(cs @ e_s) < 1e-12 and abs(cs @ e_0) < 1e-12
    assert abs(c0 @ e_u) < 1e-12 and abs(c0 @ e_s) < 1e-12
    alpha = anosov_one_form(flow, p)
    assert np.linalg.norm(np.cross(c0, alpha)) < 1e-12


def test_adapted_components_evolve_diagonally(flow):
    rng = np.random.default_rng(1)
    theta = flow.theta
    for _ in range(10):
        q = ct.CotangentPoint(BasePoint((rng.random(), rng.random()), rng.random()),
                              tuple(rng.normal(size=2)), rng.normal())
        ad0 = ct.adapted_components(flow, q)
        for t in (0.6, -2.4, 4.0):
            ad1 = ct.adapted_components(flow, ct.lifted_flow(flow, q, t))
            pred = ad0 * np.array([np.exp(theta * t), np.exp(-theta * t), 1.0])
            assert np.max(np.abs(ad1 - pred)) < 1e-9 * max(1.0, np.max(np.abs(pred)))


def test_adapted_roundtrip(flow):
    rng = np.random.default_rng(2)
    for _ in range(10):
        base = BasePoint((rng.random(), rng.random()), rng.random())
        triple = rng.normal(size=3)
        q = from_adapted(flow, base, triple)
        assert np.allclose(ct.adapted_components(flow, q), triple, atol=1e-12)


def test_cone_convergence_to_unstable_coframe(flow):
    # generic directions approach the unstable coframe under the lifted flow
    rng = np.random.default_rng(3)
    for _ in range(5):
        base = BasePoint((rng.random(), rng.random()), rng.random())
        triple = rng.normal(size=3)
        if abs(triple[0]) < 0.1:
            continue
        q = from_adapted(flow, base, triple)
        qt = ct.lifted_flow(flow, q, 12.0)
        ad = ct.adapted_components(flow, qt)
        ad /= np.linalg.norm(ad)
        assert abs(abs(ad[0]) - 1.0) < 1e-6


def test_covector_must_be_finite(flow):
    with pytest.raises(ValueError):
        ct.CotangentPoint(BasePoint((0, 0), 0.0), (np.inf, 0.0), 0.0)

