import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import catspec.escape
from catspec import cotangent as ct
from catspec import harness as hs
from catspec.config import parse_config
from catspec.escape import (AUDIT_SAMPLES, RADIUS_SPAN, EscapeFunction, OrderParams, _richardson,
                            smoothstep, verify_escape_estimates)
from catspec.model import BasePoint
from oracles import (averaged_order, direction_flow, escape_derivative_one_shot, from_adapted,
                     order_profile_flow_derivative, order_value, raw_profiles_one_shot,
                     stable_bump, trapped_point)


def adapted_point(r, direction):
    d = np.asarray(direction, dtype=float)
    return r * d / np.linalg.norm(d)


def test_order_params_validation(defaults):
    for bad in ({"u": 1.0, "n0": 2.0, "s": 3.0},        # u not negative
                {"u": -1.0, "n0": -2.0, "s": 3.0},      # not ordered
                {"aperture": 1.0},                      # aperture too wide
                {"aperture": 1.4e-154},                 # its squared sine is subnormal
                {"t_avg": 0.0}):
        with pytest.raises(ValueError):
            dataclasses.replace(defaults.escape, **bad)


def test_smoothstep_is_a_c2_ramp():
    assert smoothstep(-1.0) == 0.0 and smoothstep(2.0) == 1.0
    x = np.linspace(0, 1, 11)
    assert np.all(np.diff(smoothstep(x)) >= 0)
    assert smoothstep(0.5) == pytest.approx(0.5)


def test_projective_flow_fixed_points(escape):
    for axis in (np.array([1.0, 0, 0]), np.array([0, 0, 1.0])):
        out = direction_flow(escape, axis, 3.7)
        assert np.allclose(out, axis, atol=1e-14)
    # generic directions end up near the span of the unstable and neutral axes
    out = direction_flow(escape, np.array([0.4, 0.8, 0.45]), 10.0)
    assert abs(out[1]) < 1e-6


def test_averaged_order_attractor_values(escape):
    eps = 0.25
    # stable-bump average: 1 near its attractor circle, 0 at the repeller
    assert averaged_order(escape, np.array([1.0, 0, 0]), stable_bump) > 1 - eps
    assert averaged_order(escape, np.array([0, 1.0, 0]), stable_bump) < eps
    mid = np.array([1.0, 1.0, 0.3])
    mid /= np.linalg.norm(mid)
    plus = stable_bump(escape, direction_flow(escape, mid, escape.params.t_avg))
    minus = stable_bump(escape, direction_flow(escape, mid, -escape.params.t_avg))
    deriv = (plus - minus) / (2 * escape.params.t_avg)
    assert deriv >= 1.0 / (2 * escape.params.t_avg) - 1e-9


def test_order_combination_formula(escape):
    # at |xi| >= 1 the radial cutoff is 1 and m is the direction profile
    p = escape.params
    for d in (np.array([0.3, -0.8, 0.52]), np.array([1.0, 0.01, 0.2])):
        m1, m2 = escape._profiles(d, False)
        assert order_value(escape, d) == pytest.approx(
            p.s + (p.n0 - p.s) * m1 + (p.u - p.n0) * m2, abs=1e-14)


def test_escape_value_is_even_in_e(escape):
    # bit for bit, the weight of mode (p, -j) is that of (p, j): the
    # escape function reads e only through e^2, |e| and the norm
    rng = np.random.default_rng(21)
    d = rng.normal(size=(600, 3))
    d[::7, 2] = 0.0
    d *= 10.0 ** rng.uniform(-150.0, 150.0, size=(600, 1))
    d[-4:] = [[0.0, 0.0, 1e-300], [1e150, 0.0, -1e150], [0.0, 3.0, 0.0], [2.0, -1.0, 1e-200]]
    g = escape.escape_value(d, [escape.params])
    assert np.all(np.isfinite(g)) and np.count_nonzero(g)
    assert np.array_equal(escape.escape_value(d * [1.0, 1.0, -1.0], [escape.params]), g)


def test_order_values_in_designated_cones(escape):
    p = escape.params
    big = 40.0
    assert order_value(escape, adapted_point(big, [0, 1, 0])) == pytest.approx(p.s, abs=1e-4)
    assert order_value(escape, adapted_point(big, [1, 0, 0])) == pytest.approx(p.u, abs=1e-4)
    assert order_value(escape, adapted_point(big, [0, 0, 1])) == pytest.approx(p.n0, abs=1e-8)
    # strictly inside the unstable cone the value is below u/2
    tilt = adapted_point(big, [1.0, 0.05, 0.05])
    assert order_value(escape, tilt) < p.u / 2


def test_order_range_and_cutoff(escape):
    p = escape.params
    rng = np.random.default_rng(0)
    nu = rng.normal(size=(100000, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    r = np.exp(rng.uniform(np.log(0.1), np.log(1000.0), size=100000))
    vals = order_value(escape, nu * r[:, None])
    assert np.all(vals >= p.u - 1e-12) and np.all(vals <= p.s + 1e-12)
    assert np.all(vals[r <= 0.5] == 0.0)


def test_order_homogeneity_degree_zero(escape):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * 7.0
    assert np.max(np.abs(order_value(escape, 2.0 * pts)
                         - order_value(escape, pts))) < 1e-12


def test_interpolant_cases(flow, escape):
    # plain radius on the hyperbolic coframes
    assert escape.radial_interpolant(adapted_point(7.0, [0, 1, 0])) == pytest.approx(7.0)
    # symbol value near the neutral axis: the bounded-orbit covector at E = 3
    q = trapped_point(flow, BasePoint((0.2, 0.2), 0.35), 3.0)
    assert escape.radial_interpolant(ct.adapted_components(flow, q)) == pytest.approx(
        3.0, abs=1e-12)
    # degree-one homogeneity
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * 5.0
    assert np.max(np.abs(escape.radial_interpolant(2.0 * pts)
                         - 2.0 * escape.radial_interpolant(pts))) < 1e-12


def test_escape_value_formula(escape):
    p = escape.params
    assert escape.escape_value(adapted_point(0.4, [1, 1, 1]), [p])[0] == 0.0
    val = escape.escape_value(adapted_point(np.e, [0, 1, 0]), [p])[0]
    assert val == pytest.approx(p.s * np.log(np.sqrt(1 + np.e ** 2)), abs=1e-4)
    # matches order * log sqrt(1 + f^2) exactly as evaluated
    pt = adapted_point(12.0, [0.3, 0.5, 0.4])
    m = order_value(escape, pt)
    f = escape.radial_interpolant(pt)
    assert escape.escape_value(pt, [p])[0] == pytest.approx(m * np.log(np.sqrt(1 + f * f)),
                                                            abs=1e-13)


def test_escape_value_symmetric(escape):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 3)) * 20.0
    sets = [escape.params]
    assert np.max(np.abs(escape.escape_value(pts, sets) - escape.escape_value(-pts, sets))) < 1e-12


def test_escape_derivative_on_trapped_set(flow, escape):
    q = trapped_point(flow, BasePoint((0.1, 0.8), 0.0), 25.0)
    assert abs(escape.escape_derivatives([q])[0]) < 1e-6


def test_escape_derivative_in_deep_cones(flow, escape):
    p = escape.params
    theta = flow.theta
    [deep_u] = escape.escape_derivative_adapted(adapted_point(50.0, [1, 0, 0]), [p])
    [deep_s] = escape.escape_derivative_adapted(adapted_point(50.0, [0, 1, 0]), [p])
    assert deep_u < -0.5 * abs(p.u) * theta
    assert deep_s < -0.5 * p.s * theta
    # and the two agree with the cotangent-flow finite difference route
    base = BasePoint((0.6, 0.1), 0.0)
    q = from_adapted(flow, base, adapted_point(50.0, [1, 0, 0]))
    assert escape.escape_derivatives([q])[0] == pytest.approx(float(deep_u), abs=1e-7)


def test_profile_flow_derivative_nonpositive(escape):
    # endpoint identity of the averaged profiles on a cosphere grid
    az = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    pol = np.linspace(0.05, np.pi - 0.05, 12)
    grid = np.stack([np.outer(np.sin(pol), np.cos(az)).ravel(),
                     np.outer(np.sin(pol), np.sin(az)).ravel(),
                     np.outer(np.cos(pol), np.ones_like(az)).ravel()], axis=-1)
    vals = order_profile_flow_derivative(escape, grid)
    assert np.max(vals) <= 1e-12


def _derivative_points(escape):
    """Rows in all three aperture cones and between them, on and near the
    axes, with zero components, and on the radial ramp's shell."""
    rng = np.random.default_rng(19)
    n = 200
    ang = escape.params.aperture * np.sqrt(rng.random(n))
    az = 2 * np.pi * rng.random(n)
    # within the aperture of axis 0 (u), 1 (s) and 2 (neutral)
    tilted = np.stack([np.cos(ang), np.sin(ang) * np.cos(az), np.sin(ang) * np.sin(az)], axis=-1)
    cones = [np.roll(tilted, k, axis=1) * rng.choice([-1.0, 1.0], size=(n, 1)) for k in range(3)]
    generic = rng.normal(size=(3 * n, 3))
    for col in range(3):
        generic[col::9, col] = 0.0
    generic[3::9, :2] = 0.0
    generic[4::9, 1:] = 0.0
    generic[5::9, ::2] = 0.0
    near_axis = np.array([[1.0, 1e-9, -2e-9], [1e-9, 1.0, 0.0], [1e-12, -1e-12, 1.0],
                          [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    nu = np.concatenate(cones + [generic, near_axis])
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    radii = escape.params.radius * RADIUS_SPAN ** rng.random(len(nu))
    shell = nu[::4] * rng.uniform(0.5, 1.0, size=(len(nu[::4]), 1))
    return np.concatenate([nu * radii[:, None], shell])


def _finite_difference_error(escape, pts):
    sets = [escape.params]
    fd = _richardson(lambda t: escape.escape_value(escape.covector_flow(pts, t), sets)[0])
    return np.max(np.abs(escape.escape_derivative_adapted(pts, sets)[0] - fd))


def test_escape_derivative_matches_every_node_oracle(escape):
    pts = _derivative_points(escape)
    assert set(escape.cone_label(pts)) == {"0", "u", "s", "mix"}
    sets = [escape.params]
    [got] = escape.escape_derivative_adapted(pts, sets)
    want = escape_derivative_one_shot(escape, pts)
    assert np.all(np.isfinite(want)) and np.count_nonzero(want) > len(pts) // 2
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # one point gives one value per set, a grid keeps its shape
    one = escape.escape_derivative_adapted(pts[7], sets)
    assert one.shape == (1,) and one[0] == pytest.approx(float(want[7]), rel=1e-12)
    grid = pts[:60].reshape(3, 20, 3)
    assert np.array_equal(escape.escape_derivative_adapted(grid, sets),
                          escape.escape_derivative_adapted(pts[:60], sets).reshape(1, 3, 20))


def test_escape_derivative_matches_finite_differences(escape):
    # the Richardson step's own error on these rows is up to 1.3e-9
    assert _finite_difference_error(escape, _derivative_points(escape)) <= 1e-8


def test_a_defect_in_the_fraction_rates_fails_the_cross_check(escape, monkeypatch):
    # negative control: theta -> 1.01 theta in d(A/T)/dt and d(B/T)/dt,
    # which scales the profiles' derivatives and nothing else
    pts = _derivative_points(escape)
    average = EscapeFunction._average

    def defective(self, sq, m):
        average(self, sq, m)
        for dm in m[2:]:
            dm *= 1.01

    monkeypatch.setattr(EscapeFunction, "_average", defective)
    assert _finite_difference_error(escape, pts) > 1e-8
    [got], want = (escape.escape_derivative_adapted(pts, [escape.params]),
                   escape_derivative_one_shot(escape, pts))
    assert not np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # the escape check's own audit sees it too
    [rep] = verify_escape_estimates(escape, sample_count=300, seed=2, keep_rows=0,
                                    orders=[escape.params])
    assert rep.violations == AUDIT_SAMPLES


def test_escape_check_fails_with_zero_bounds_when_g_vanishes(monkeypatch):
    # m, G and X(G) all 0: zero decay bounds, positive zeros, no doubling
    # ratio; the audit agrees (its difference of G is 0 too)
    order_and_escape = EscapeFunction._order_and_escape
    monkeypatch.setattr(EscapeFunction, "_order_and_escape",
                        lambda self, *args: tuple(0.0 * v for v in order_and_escape(self, *args)))
    cfg = parse_config("[campaign]\nchecks = escape\nescape_samples = 500\n")
    ok, out = hs.CHECKS["escape"](hs.CampaignContext(cfg))
    assert not ok
    for key in ("decay_bound", "c_measured"):
        assert out[key] == 0.0 and math.copysign(1.0, out[key]) == 1.0
    assert out["doubling_ratio"] is None
    # every sample outside the neutral cone fails X(G) < 0, no more
    [rep] = verify_escape_estimates(EscapeFunction(cfg.flow(), cfg.escape), sample_count=500,
                                    seed=cfg.seed, keep_rows=500, orders=[cfg.escape])
    assert out["violations"] == rep.violations == sum(row[6] != "0" for row in rep.rows) > 0


_ESCAPE_PAYLOAD = """
import hashlib, json
import numpy as np
from catspec import harness as hs
from catspec.config import parse_config

cfg = parse_config("[campaign]\\nchecks = escape\\nescape_samples = 4099\\n")
ctx = hs.CampaignContext(cfg)
ok, payload = hs.CHECKS["escape"](ctx)
pts = np.random.default_rng(3).normal(size=(4099, 3)) * 30.0
[xg] = ctx.escape.escape_derivative_adapted(pts, [cfg.escape])
print(ok, json.dumps(payload), hashlib.sha256(xg.tobytes()).hexdigest())
"""


def test_escape_payload_is_independent_of_the_blas_thread_count():
    # the derivative reduces its windows per run of at most 67 x 384
    # entries, and the profiles per block of at most 67 rows: OpenBLAS runs
    # a gemv below about 460,800 entries on one thread
    src = str(Path(catspec.escape.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _ESCAPE_PAYLOAD], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].startswith("True ") and outs[0] == outs[1]


def test_default_escape_check_keeps_its_finite_difference_values():
    # the values the four-pass Richardson derivative gave on the default
    # campaign; the exact derivative moves them by 1.3e-12 relative
    ok, out = hs.CHECKS["escape"](hs.CampaignContext(parse_config("")))
    assert ok
    assert out["decay_bound"] == pytest.approx(2.86088370648289, rel=1e-9)
    assert out["c_measured"] == pytest.approx(0.3576104633103612, rel=1e-9)
    assert out["violations"] == 0
    assert out["max_everywhere"] == 0.0 and math.copysign(1.0, out["max_everywhere"]) == 1.0
    assert out["doubling_ratio"] == 2.0


def test_verify_escape_estimates_report(escape):
    [rep] = verify_escape_estimates(escape, sample_count=2000, seed=5, keep_rows=2000,
                                    orders=[escape.params])
    assert rep.violations == 0
    assert rep.c_measured > 0
    assert rep.max_everywhere <= 1e-9
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "a,b,e,m,g,xg,cone"
    assert len(csv.splitlines()) == 2001


def test_verify_escape_estimates_skips_the_rows_it_does_not_keep(escape, monkeypatch):
    batches = []
    averages = EscapeFunction._averages

    def spy(self, adapted, rates):
        batches.append((len(np.reshape(adapted, (-1, 3))), rates))
        return averages(self, adapted, rates)

    monkeypatch.setattr(EscapeFunction, "_averages", spy)
    [none] = verify_escape_estimates(escape, sample_count=300, seed=2, keep_rows=0,
                                     orders=[escape.params])
    # one pass with the profiles' flow derivatives, four shifted passes of
    # the audited samples, no empty row batch; the kept rows' m and G come
    # from one more pass
    audit = [(AUDIT_SAMPLES, False)] * 4
    assert batches == [(300, True)] + audit
    batches.clear()
    [some] = verify_escape_estimates(escape, sample_count=300, seed=2, keep_rows=50,
                                     orders=[escape.params])
    assert batches == [(300, True)] + audit + [(50, False)]
    assert none.rows == [] and none.to_csv() == "a,b,e,m,g,xg,cone\n"
    assert len(some.rows) == 50
    for name in ("c_measured", "decay_bound", "max_everywhere", "violations"):
        assert getattr(none, name) == getattr(some, name)


def test_verify_escape_estimates_two_parameter_sets(flow, defaults):
    for u, s, aperture in ((-4.0, 4.0, 0.1), (-6.0, 12.0, 0.08)):
        params = dataclasses.replace(defaults.escape, u=u, s=s, aperture=aperture)
        [rep] = verify_escape_estimates(EscapeFunction(flow, params), sample_count=1500,
                                        seed=6, keep_rows=2000, orders=[params])
        assert rep.violations == 0 and rep.c_measured > 0


def _increasing_everywhere(self, a, orders):
    return np.ones((len(orders),) + np.shape(a)[:-1])


_true_derivative = EscapeFunction.escape_derivative_adapted


def _increasing_on_neutral_cone(self, a, orders):
    # correct outside the neutral cone, so only the violation count can fail
    return np.where(self.cone_label(a) == "0", 1.0, _true_derivative(self, a, orders))


def test_verify_escape_estimates_detects_violations(flow, escape, monkeypatch):
    # sanity-check the violation path by corrupting the derivative
    monkeypatch.setattr(EscapeFunction, "escape_derivative_adapted",
                        _increasing_everywhere)
    [rep] = verify_escape_estimates(escape, sample_count=100, seed=0, keep_rows=2000,
                                    orders=[escape.params])
    assert rep.violations > 0


@pytest.mark.parametrize("derivative", [_increasing_everywhere,
                                        _increasing_on_neutral_cone])
def test_escape_check_fails_on_violations(monkeypatch, derivative):
    # negative control: violating samples give verdict false, not an error
    monkeypatch.setattr(EscapeFunction, "escape_derivative_adapted", derivative)
    cfg = parse_config("[campaign]\nchecks = escape\nescape_samples = 2000\n")
    report = hs.run_campaign(cfg)
    out = report["checks"]["escape"]
    assert "error" not in out
    assert report["verdicts"]["escape"] is False
    assert out["violations"] > 0
    if derivative is _increasing_on_neutral_cone:
        assert out["c_measured"] > 0 and 1.8 <= out["doubling_ratio"] <= 2.2


def test_neutral_cone_only_nonpositivity(escape):
    # restricted to the neutral cone, only the global bound applies and holds
    rng = np.random.default_rng(7)
    n = 400
    ang = escape.params.aperture * np.sqrt(rng.random(n))
    az = 2 * np.pi * rng.random(n)
    nu = np.stack([np.sin(ang) * np.cos(az), np.sin(ang) * np.sin(az),
                   np.cos(ang) * np.sign(rng.normal(size=n))], axis=-1)
    r = 10.0 * 100.0 ** rng.random(n)
    xg = escape.escape_derivative_adapted(nu * r[:, None], [escape.params])
    assert np.max(xg) <= 1e-9


def sample_cotangent_points(escape, count, seed=0, radius_span=100.0):
    """Random phase-space points matching the verification distribution."""
    p = escape.params
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        r = p.radius * radius_span ** rng.random()
        base = BasePoint((rng.random(), rng.random()), rng.random())
        out.append(from_adapted(escape.flow, base, nu * r))
    return out


def test_sampled_points_agree_across_evaluation_routes(flow, escape):
    # phase-space samples evaluated through the lifted flow match the
    # closed-form equivariant-coordinate route used by the batch sweep
    for q in sample_cotangent_points(escape, 12, seed=9):
        ad = ct.adapted_components(flow, q)
        g_lifted = escape.escape_value(ct.adapted_components(flow, q), [escape.params])[0]
        assert g_lifted == pytest.approx(float(escape.escape_value(ad, [escape.params])[0]),
                                         abs=1e-12)
        assert escape.escape_derivatives([q])[0] == pytest.approx(
            float(escape.escape_derivative_adapted(ad, [escape.params])[0]), abs=1e-6)


def test_quadrature_internal_consistency(escape):
    # the fixed composite rule agrees with the adaptive average
    d = np.array([0.4, 0.7, 0.59])
    d /= np.linalg.norm(d)
    m1_fixed, _ = escape._averages(d, False)
    m1_adapt = averaged_order(escape, d, stable_bump)
    assert m1_fixed == pytest.approx(m1_adapt, abs=1e-9)


# -- windowed profiles and shared profile passes ----------------------------

#: every n mod 4 within one block and a few
SIZES = list(range(41)) + [97, 101]
#: every n mod 4 across the window slabs' boundaries at 2,048 and 4,096
#: rows (EscapeFunction.WINDOW_ROWS), and a pass of many slabs
CHUNKED = list(range(2047, 2054)) + list(range(4095, 4102)) + [20001]
AXES = np.eye(3)


def _matches_one_shot(escape, pts):
    got, want = escape._averages(pts, False), raw_profiles_one_shot(escape, pts)
    return all(g.shape == w.shape == np.shape(pts)[:-1] and np.array_equal(g, w)
               for g, w in zip(got, want))


def _with_axes_last(pts):
    # rows whose bumps are 0 or 1 at every node, also in the last n mod 4
    # places, the last block's rows before its zero pad
    pts = pts.copy()
    n = len(pts)
    pts[n - n % 4:] = AXES[:n % 4]
    pts[:12] = np.tile(AXES, (4, 1))
    return pts


@pytest.mark.parametrize("rows", SIZES)
def test_blocked_raw_profiles_match_one_shot(escape, rows):
    pts = np.random.default_rng(rows).normal(size=(rows, 3)) * 30.0
    assert _matches_one_shot(escape, pts)


@pytest.mark.parametrize("rows", [97, 98, 99, 101, 102, 103])
def test_saturated_rows_in_the_gemv_tail(escape, rows):
    assert _matches_one_shot(escape, _with_axes_last(
        np.random.default_rng(rows).normal(size=(rows, 3))))


def test_unpadded_gemv_moves_only_the_last_rows(escape):
    # negative control of the zero pad: without it the gemv reduces the
    # last n mod 4 rows in its remainder kernel, which moves some of them
    # (in 20 of the 31 batches of SIZES above one row that are not a
    # multiple of 4 rows, and in each residue), and nothing else
    moved = []
    for rows in SIZES[2:]:
        pts = np.random.default_rng(rows).normal(size=(rows, 3)) * 30.0
        padded = raw_profiles_one_shot(escape, pts)
        bare = raw_profiles_one_shot(escape, pts, pad=False)
        off = np.flatnonzero(np.any([p != b for p, b in zip(padded, bare)], axis=0))
        assert np.all(off >= rows - rows % 4), (rows, off)
        moved += [rows] * bool(off.size)
    assert moved and {rows % 4 for rows in moved} == {1, 2, 3}


_ONE_BLAS_THREAD = """
import numpy as np
from catspec.config import parse_config
from catspec.escape import EscapeFunction
from test_escape import CHUNKED, _matches_one_shot, _with_axes_last

cfg = parse_config("")
escape = EscapeFunction(cfg.flow(), cfg.escape)
for rows in CHUNKED:
    pts = np.random.default_rng(rows).normal(size=(rows, 3)) * 30.0
    print(rows, _matches_one_shot(escape, pts), _matches_one_shot(escape, _with_axes_last(pts)))
"""


def test_raw_profiles_match_one_shot_across_chunks():
    # with two BLAS threads OpenBLAS splits the oracle's gemv of a few
    # thousand rows in halves, at a row that need not be a multiple of 4,
    # which moves it there by 1e-16; on one thread it is the one-pass formula
    src = str(Path(catspec.escape.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-c", _ONE_BLAS_THREAD], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{rows} True True" for rows in CHUNKED]


def test_blocked_raw_profiles_keep_the_batch_shape(escape):
    single = np.array([0.4, -7.0, 2.5])
    for got, want in zip(escape._averages(single, False),
                         raw_profiles_one_shot(escape, single)):
        assert np.shape(got) == () and got == want
    grid = np.random.default_rng(11).normal(size=(7, 9, 3)) * 30.0
    assert _matches_one_shot(escape, grid)


def test_rows_whose_ramp_argument_is_exactly_0_or_1_at_a_node(escape):
    lo, span = escape._cone2, 1.0 - 2.0 * escape._cone2
    ga = np.exp(2.0 * escape.theta * escape._nodes)
    rows = []
    for j in (40, 191, 300):
        for c in (lo, 1.0 - lo):
            # a^2 g / (a^2 g + 1) and (b^2 / g) / (b^2 / g + 1) equal c at
            # node j up to rounding; ulp steps of a and b hit it exactly
            for k in range(-8, 9):
                step = 1.0 + k * 2.0 ** -52
                rows.append((np.sqrt(c / (1.0 - c) / ga[j]) * step, 0.0, 1.0))
                rows.append((0.0, np.sqrt(c / (1.0 - c) * ga[j]) * step, 1.0))
    rows = np.array(rows)
    sq = rows ** 2
    a2, b2 = sq[:, 0:1] * ga, sq[:, 1:2] / ga
    tot = a2 + b2 + sq[:, 2:3]
    args = np.concatenate([(a2 / tot - lo) / span, (b2 / tot - lo) / span])
    assert np.any(args == 0.0) and np.any(args == 1.0)
    assert _matches_one_shot(escape, rows)


def test_rows_with_zero_components(escape):
    pts = np.random.default_rng(14).normal(size=(203, 3)) * 30.0
    for col in range(3):
        pts[col::7, col] = 0.0
    pts[3::7, :2] = 0.0
    pts[4::7, 1:] = 0.0
    pts[5::7, ::2] = 0.0
    assert _matches_one_shot(escape, pts)


@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e140, 1e-160])
def test_raw_profiles_at_extreme_scales(escape, scale):
    # the window arithmetic raises nothing that the one-pass formula does not
    pts = np.random.default_rng(15).normal(size=(101, 3))
    with np.errstate(over="raise", invalid="raise"):
        assert _matches_one_shot(escape, pts * scale)
        for col in range(3):
            one = pts.copy()
            one[:, col] *= scale
            assert _matches_one_shot(escape, one)


def test_a_tiny_aperture_keeps_its_windows():
    # at aperture 1e-9, 1 - lo rounds to 1.0, so each window root takes its
    # complement as given instead of 1 - (1 - lo) = 0.0, whose log raised
    cfg = parse_config("[campaign]\nchecks = escape\nescape_samples = 500\n"
                       "[escape]\naperture = 1e-9\n")
    ok, payload = hs.CHECKS["escape"](hs.CampaignContext(cfg))
    assert ok in (True, False) and payload["violations"] >= 0
    escape = EscapeFunction(cfg.flow(), cfg.escape)
    assert escape._cone2 > 0.0 and 1.0 - escape._cone2 == 1.0
    pts = np.random.default_rng(19).normal(size=(203, 3)) * 30.0
    assert _matches_one_shot(escape, pts) and _matches_one_shot(escape, _with_axes_last(pts))


def _planned_over_own_nodes(escape, windows, rows):
    """The window nodes the runs of ``_plan`` evaluate over the rows' own
    window nodes, planning ``rows`` rows at a time."""
    planned = 0
    for r0 in range(0, windows.shape[1], rows):
        _, bounds, runs = escape._plan(windows[:, r0:r0 + rows])
        planned += sum((bounds[i1] - bounds[i0]) * (p1 - p0 + q1 - q0)
                       for i0, i1, p0, q0, p1, q1 in runs)
    return planned / int(np.sum(windows[2:] - windows[:2]))


def test_a_pass_is_planned_once_with_tight_windows(escape, monkeypatch):
    pts = np.random.default_rng(20).normal(size=(20000, 3))
    plans = []
    plan = EscapeFunction._plan
    monkeypatch.setattr(EscapeFunction, "_plan",
                        lambda self, windows: plans.append(windows.shape) or plan(self, windows))
    escape._averages(pts, True)
    assert plans == [(4, 20000)]
    windows = escape._windows(pts)
    assert _planned_over_own_nodes(escape, windows, 20000) <= 1.2
    # negative control: each 2,048-row slice planned on its own, as when
    # every chunk of that many rows was sorted apart
    assert _planned_over_own_nodes(escape, windows, 2048) >= 1.3


def test_narrowed_windows_break_the_equality(escape, monkeypatch):
    # negative control: three nodes cut from each side of every window
    # replace ramp values by 0 and 1; components of similar size keep the
    # windows inside the node range
    rng = np.random.default_rng(16)
    pts = rng.choice([-1.0, 1.0], size=(97, 3)) * rng.uniform(0.3, 1.0, size=(97, 3))
    assert _matches_one_shot(escape, pts)
    monkeypatch.setattr(EscapeFunction, "WINDOW_MARGIN", -3)
    assert not _matches_one_shot(escape, pts)


def _doubled(q):
    return dataclasses.replace(q, u=2.0 * q.u, s=2.0 * q.s)


def _counting_passes(monkeypatch):
    calls = []
    averages = EscapeFunction._averages
    monkeypatch.setattr(EscapeFunction, "_averages",
                        lambda self, a, rates:
                        calls.append(len(np.reshape(a, (-1, 3)))) or averages(self, a, rates))
    return calls


@pytest.mark.parametrize("order", [parse_config("").escape,
                                   parse_config("[escape]\nn0 = 1\n").escape],
                         ids=["default", "n0_1"])
def test_orders_reports_equal_a_fresh_evaluator(flow, monkeypatch, order):
    calls = _counting_passes(monkeypatch)
    base = EscapeFunction(flow, order)
    primary, shared = verify_escape_estimates(base, sample_count=1500, seed=4, keep_rows=2000,
                                              orders=[order, _doubled(order)])
    # same seed, same samples: the derivative's pass, the audit's four and
    # the kept rows' serve both sets
    assert calls == [1500] + [AUDIT_SAMPLES] * 4 + [1500]
    for report, params in ((primary, order), (shared, _doubled(order))):
        [fresh] = verify_escape_estimates(EscapeFunction(flow, params), sample_count=1500,
                                          seed=4, keep_rows=2000, orders=[params])
        for field in dataclasses.fields(fresh):
            assert getattr(report, field.name) == getattr(fresh, field.name), field.name
        assert report.to_csv() == fresh.to_csv()


def test_orders_reject_other_geometry(escape):
    p = escape.params
    for change in ({"t_avg": 4.0}, {"aperture": 0.05}, {"radius": 20.0}):
        with pytest.raises(ValueError):
            escape.escape_value(np.ones(3), orders=[p, dataclasses.replace(p, **change)])
        with pytest.raises(ValueError):
            verify_escape_estimates(escape, sample_count=10, seed=0, keep_rows=2000,
                                    orders=[dataclasses.replace(p, **change)])
    other = dataclasses.replace(p, u=-3.0, n0=0.5, s=5.0)
    pts = np.random.default_rng(18).normal(size=(40, 3)) * 20.0
    both = escape.escape_value(pts, orders=[p, other])
    assert both.shape == (2, 40)
    assert np.array_equal(both[0], escape.escape_value(pts, [p])[0])
    assert np.array_equal(both[1], EscapeFunction(escape.flow, other).escape_value(pts, [other])[0])
    assert escape.params is p


def test_escape_check_passes_over_the_profiles_once(monkeypatch):
    # both exponent sets of the doubling control share one profile pass
    calls = _counting_passes(monkeypatch)
    cfg = parse_config("[campaign]\nchecks = escape\nescape_samples = 500\n")
    hs.CHECKS["escape"](hs.CampaignContext(cfg))
    # one pass over all samples; the audit's four cover only its samples
    assert calls == [500] + [AUDIT_SAMPLES] * 4
    calls.clear()
    verify_escape_estimates(EscapeFunction(cfg.flow(), cfg.escape), sample_count=500, seed=0,
                            keep_rows=2000, orders=[cfg.escape])
    assert calls == [500] + [AUDIT_SAMPLES] * 4 + [500]


def test_escape_check_doubling_ratio_equals_fresh_evaluators():
    # the doubled order shares the primary's profile passes; its ratio is
    # that of two evaluators that share nothing
    cfg = parse_config("[campaign]\nchecks = escape\nescape_samples = 1500\n")
    ok, payload = hs.CHECKS["escape"](hs.CampaignContext(cfg))
    fresh = [verify_escape_estimates(EscapeFunction(cfg.flow(), params), sample_count=1500,
                                     seed=cfg.seed, keep_rows=0, orders=[params])[0]
             for params in (cfg.escape, _doubled(cfg.escape))]
    assert payload["doubling_ratio"] == fresh[1].decay_bound / fresh[0].decay_bound
    assert ok


@pytest.mark.parametrize("n0, exact", [(0.0, True), (1.0, False)])
def test_doubling_control_is_exact_at_zero_neutral_order(n0, exact):
    # with n0 = 0 each term of the doubled order is twice the primary's,
    # so the ratio is 2.0 by construction; n0 = 1 makes it empirical (2.14
    # on these samples)
    cfg = parse_config(f"[campaign]\nchecks = escape\nescape_samples = 1500\n"
                       f"[escape]\nn0 = {n0}\n")
    ok, payload = hs.CHECKS["escape"](hs.CampaignContext(cfg))
    assert ok
    if exact:
        assert payload["doubling_ratio"] == 2.0
    else:
        assert 2.0 < payload["doubling_ratio"] <= 2.2


def test_escape_derivative_memory_stays_blocked(flow, defaults):
    # unblocked, a 20,000-point derivative peaks at about 530 MB of temporaries
    escape = EscapeFunction(flow, defaults.escape)
    pts = np.random.default_rng(13).normal(size=(20000, 3)) * 30.0
    tracemalloc.start()
    try:
        escape.escape_derivative_adapted(pts, [escape.params])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
