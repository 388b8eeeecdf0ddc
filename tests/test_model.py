import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from catspec import model
from catspec.errors import CatspecError, NonConvergence
from catspec.model import BasePoint, CatMap, MappingTorusFlow, TimeChange
from oracles import (DegenerateSeed, anosov_one_form, anosov_splitting, coords, flow_map,
                     splitting_via_limit, vector_field)

GOLDEN_LU = (3.0 + np.sqrt(5.0)) / 2.0


def rk45_flow_time(flow, p, t):
    """Oracle for flow_time: integrate tau' = c(tau) on the line with RK45."""
    sol = solve_ivp(lambda _, y: [flow.time_change(y[0] % 1.0)], (0.0, t),
                    [p.tau], method="RK45", rtol=1e-12, atol=1e-11)
    assert sol.success, sol.message
    lifted = float(sol.y[0, -1])
    nearest = np.round(lifted)
    if abs(lifted - nearest) < 1e-9:
        lifted = float(nearest)
    crossings = int(np.floor(lifted))
    return lifted - crossings, crossings


def test_cat_map_eigen_structure(flow):
    cat = flow.cat
    assert cat.lambda_u == pytest.approx(GOLDEN_LU, abs=1e-14)
    assert cat.lambda_u * cat.lambda_s == pytest.approx(1.0, abs=1e-14)
    a = cat.matrix.astype(float)
    assert np.linalg.norm(a @ cat.e_u - cat.lambda_u * cat.e_u) < 1e-12
    assert np.linalg.norm(a @ cat.e_s - cat.lambda_s * cat.e_s) < 1e-12


def test_cat_map_rejects_bad_matrices():
    with pytest.raises(ValueError):
        CatMap(2, 1, 1, 2)          # det 3
    with pytest.raises(ValueError):
        CatMap(1, 1, 0, 1)          # parabolic


def test_cat_map_power_is_exact_or_raises(flow):
    # Python-int powers: A^45 = [[F91, F90], [F90, F89]] still fits int64,
    # A^46 (F93 ~ 1.2e19) does not; a power of any size fails at once
    cat = flow.cat
    fib = [0, 1]
    while len(fib) < 94:
        fib.append(fib[-1] + fib[-2])
    for p in range(46):
        expected = np.array([[fib[2 * p + 1], fib[2 * p]], [fib[2 * p], fib[2 * p - 1]]]
                            if p else [[1, 0], [0, 1]], dtype=object)
        inverse = np.array([[expected[1, 1], -expected[0, 1]],
                            [-expected[1, 0], expected[0, 0]]])
        assert cat.power(p).dtype == np.int64
        assert (cat.power(p) == expected).all() and (cat.power(-p) == inverse).all()
    for p in (46, -46, 10 ** 300):
        with pytest.raises(CatspecError, match="seam crossings"):
            cat.power(p)


def test_time_change_positive_and_periodic():
    with pytest.raises(ValueError):
        TimeChange(1.0, (1.5,), ())
    tc = TimeChange(1.0, (0.2,), ())
    taus = np.linspace(0, 1, 7)
    assert np.allclose(tc(taus + 1.0), tc(taus), atol=1e-15)
    # model functions with tau-only dependence are twist invariant for free
    assert tc(0.0) == pytest.approx(1.2)


def test_return_time_against_quadrature_oracle(flow):
    oracle = quad(lambda t: 1.0 / flow.time_change(t), 0.0, 1.0, epsabs=1e-13)[0]
    assert flow.period == pytest.approx(oracle, abs=1e-12)
    # closed form for c = 1 + a cos: 1/sqrt(1 - a^2)
    assert flow.period == pytest.approx(1.0 / np.sqrt(0.96), abs=1e-12)


def test_vector_field_values(flow, flow_const):
    p = BasePoint((0.3, 0.7), 0.0)
    assert np.allclose(vector_field(flow_const, p), [0, 0, 1])
    assert np.allclose(vector_field(flow, p), [0, 0, 1.2])
    assert np.allclose(vector_field(flow, BasePoint((0.3, 0.7), 0.25)),
                       [0, 0, 1.0], atol=1e-15)


def test_flow_map_vertical_translation(flow_const):
    q = flow_map(flow_const, BasePoint((0.25, 0.5), 0.3), 0.4)
    assert q.x == pytest.approx((0.25, 0.5))
    assert q.tau == pytest.approx(0.7, abs=1e-10)


def test_flow_map_one_crossing_applies_matrix(flow_const):
    q = flow_map(flow_const, BasePoint((0.25, 0.5), 0.0), 1.0)
    assert q.x[0] == pytest.approx(0.0, abs=1e-9)
    assert q.x[1] == pytest.approx(0.75, abs=1e-9)
    assert q.tau == pytest.approx(0.0, abs=1e-9)


def test_flow_map_return_time_crossing(flow):
    # flowing for exactly one rectified period crosses the seam once
    tau1, crossings = flow.flow_time(BasePoint((0.1, 0.2), 0.0), flow.period)
    assert crossings == 1
    assert tau1 == pytest.approx(0.0, abs=1e-9)
    # the closed-form rectified time agrees with the RK45 oracle
    two_harmonics = MappingTorusFlow(
        cat=flow.cat, time_change=TimeChange(1.0, (0.25, -0.1), (0.15,)))
    rng = np.random.default_rng(12)
    for f in (flow, two_harmonics):
        for _ in range(20):
            p = BasePoint((rng.random(), rng.random()), rng.random())
            t = rng.uniform(-30.0, 30.0)
            tau, n = f.flow_time(p, t)
            tau_ode, n_ode = rk45_flow_time(f, p, t)
            assert n == n_ode
            assert tau == pytest.approx(tau_ode, abs=1e-8)


def test_flow_semigroup_property(flow):
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = BasePoint((rng.random(), rng.random()), rng.random())
        s, t = rng.uniform(-3, 3, size=2)
        a = flow_map(flow, p, s + t)
        b = flow_map(flow, flow_map(flow, p, s), t)
        d = np.abs(coords(a) - coords(b))
        d = np.minimum(d, 1.0 - d)      # mod-1 distance per coordinate
        assert np.max(d) < 1e-9


def test_differential_suspension_blocks(flow_const, flow):
    p = BasePoint((0.2, 0.4), 0.0)
    d = flow_const.differential(p, 1.0)
    assert np.allclose(d[:2, :2], flow_const.cat.matrix)
    assert d[2, 2] == pytest.approx(1.0)
    assert np.allclose(d[:2, 2], 0) and np.allclose(d[2, :2], 0)
    assert np.allclose(flow.differential(p, 0.0), np.eye(3), atol=1e-12)
    assert np.linalg.det(flow.differential(p, 2.3)) > 0


def test_differential_contracts_stable_direction(flow_const):
    e_s = flow_const.cat.e_s
    v = np.array([e_s[0], e_s[1], 0.0])
    d = flow_const.differential(BasePoint((0.3, 0.3), 0.0), 3.0)
    oracle = np.linalg.matrix_power(flow_const.cat.matrix.astype(float), 3) @ e_s
    assert np.allclose(d @ v, [oracle[0], oracle[1], 0.0], atol=1e-12)
    assert np.linalg.norm(d @ v) == pytest.approx(flow_const.cat.lambda_s ** 3,
                                                  abs=1e-12)


def test_hyperbolicity_rate_matches_model(flow, monkeypatch):
    monkeypatch.setattr(model, "HYPERBOLICITY_POINTS", 100)
    c_hyp, theta_fit = flow.measure_hyperbolicity(seed=1)
    target = np.log(flow.cat.lambda_u) / flow.period
    assert abs(theta_fit - target) / target < 0.05
    assert c_hyp > 0
    # the measured constants actually bound the sampled contraction
    rng = np.random.default_rng(5)
    e_s3 = np.array([flow.cat.e_s[0], flow.cat.e_s[1], 0.0])
    for _ in range(100):
        p = BasePoint((rng.random(), rng.random()), rng.random())
        t = rng.uniform(0.2, 5.0)
        growth = np.linalg.norm(flow.differential(p, t) @ e_s3)
        assert growth <= c_hyp * np.exp(-theta_fit * t) + 1e-12


def test_anosov_splitting_frames(flow):
    p = BasePoint((0.7, 0.1), 0.6)
    e_u, e_s, e_0 = anosov_splitting(flow, p)
    # golden-ratio eigenvector of the default matrix, independent of p
    oracle = np.array([GOLDEN_LU - 1.0, 1.0])
    oracle /= np.linalg.norm(oracle)
    assert abs(abs(e_u[:2] @ oracle) - 1.0) < 1e-12
    assert abs(e_0 @ np.array([0, 0, 1.0])) == pytest.approx(1.0)
    # invariance under the differential
    for t in (2.0, -2.0):
        w = flow.differential(p, t) @ e_u
        w /= np.linalg.norm(w)
        assert min(np.linalg.norm(w - e_u), np.linalg.norm(w + e_u)) < 1e-8


def test_splitting_via_limit_converges(flow):
    p = BasePoint((0.2, 0.9), 0.35)
    e_u, e_s, _ = anosov_splitting(flow, p)
    # exact seed is a fixed point
    assert np.allclose(splitting_via_limit(flow, p, e_u, 1.0), e_u, atol=1e-12)
    w = splitting_via_limit(flow, p, np.array([1.0, 0.0, 0.0]), 20.0)
    assert np.linalg.norm(w - e_u) < 1e-10
    with pytest.raises(DegenerateSeed):
        splitting_via_limit(flow, p, e_s, 10.0)
    with pytest.raises(NonConvergence):
        splitting_via_limit(flow, p, np.array([1.0, 0.0, 0.0]), 2.0, tol=1e-12)


def test_splitting_via_limit_random_seeds(flow):
    # generic seeds lose their neutral component at rate theta, so the
    # pushforward time must beat log(tol)/theta
    rng = np.random.default_rng(2)
    e_u = anosov_splitting(flow, BasePoint((0, 0), 0.0))[0]
    done = 0
    while done < 50:
        p = BasePoint((rng.random(), rng.random()), rng.random())
        v = rng.normal(size=3)
        if abs(v @ e_u) < 0.2:
            continue
        w = splitting_via_limit(flow, p, v, 25.0)
        assert np.linalg.norm(w - e_u) < 1e-8
        done += 1


def test_anosov_one_form(flow, flow_const):
    p0 = BasePoint((0.4, 0.4), 0.0)
    assert np.allclose(anosov_one_form(flow_const, p0), [0, 0, 1.0])
    assert np.allclose(anosov_one_form(flow, p0), [0, 0, 1.0 / 1.2])
    # alpha(V) = 1 and alpha kills the horizontal frame
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = BasePoint((rng.random(), rng.random()), rng.random())
        alpha = anosov_one_form(flow, p)
        assert alpha @ vector_field(flow, p) == pytest.approx(1.0, abs=1e-13)
        e_u, e_s, _ = anosov_splitting(flow, p)
        assert abs(alpha @ e_u) < 1e-12
        assert abs(alpha @ e_s) < 1e-12


def test_one_form_flow_invariance(flow):
    # pullback along the flow: alpha_{phi_t(p)}(D phi_t v) = alpha_p(v)
    rng = np.random.default_rng(4)
    for t in (0.5, 1.0, 2.0):
        for _ in range(5):
            p = BasePoint((rng.random(), rng.random()), rng.random())
            d = flow.differential(p, t)
            q = flow_map(flow, p, t)
            pulled = d.T @ anosov_one_form(flow, q)
            assert np.max(np.abs(pulled - anosov_one_form(flow, p))) < 1e-8


def test_flow_rejects_nonconvergent_setup(flow):
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonConvergence):
            flow.flow_time(BasePoint((0.1, 0.2), 0.3), t)
