"""Acceptance suite: one test per criterion, at the stated tolerances.

The campaign criteria call the campaign's own check entries
(`harness.CHECKS`) on the default configuration, with the criterion's
seed where it has its own.  Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS/FAIL line per criterion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from catspec import harness as hs
from catspec.config import DEFAULT_CONFIG, parse_config
from catspec.escape import OrderParams
from oracles import neutral_resonances


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return parse_config(DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def trunc(cfg):
    return cfg.truncation


@pytest.fixture(scope="module")
def ctx(cfg):
    return hs.CampaignContext(cfg)


@pytest.fixture(scope="module")
def campaign(cfg):
    """The full default campaign, run once for criterion 9 and the budget."""
    t0 = time.time()
    report = hs.run_campaign(cfg)
    return report, time.time() - t0


def _check(ctx, name, **changes):
    """Verdict and payload of one campaign check; `changes` edit the config."""
    if changes:
        ctx = hs.CampaignContext(replace(ctx.cfg, **changes))
    return hs.CHECKS[name](ctx)


def test_criterion_1_escape_estimates(ctx):
    t0 = time.time()
    ok, out = _check(ctx, "escape", seed=11, escape_samples=11000)
    elapsed = time.time() - t0
    _report(1, "escape estimates",
            ok and out["max_everywhere"] <= 1e-9 and elapsed < 60.0,
            f"c={out['c_measured']:.4f}, bound={out['decay_bound']:.4f}, "
            f"max X(G)={out['max_everywhere']:.2e}, "
            f"doubling={out['doubling_ratio']:.3f}, {elapsed:.1f}s")


def test_criterion_2_constant_roof_oracle(flow_const, trunc):
    t0 = time.time()
    targets = np.sort(2 * np.pi * np.arange(-trunc.j_max, trunc.j_max + 1))
    worst = -1.0
    for params in (OrderParams(), OrderParams(u=-6.0, s=12.0, t_avg=10.0,
                                              aperture=0.08)):
        res = neutral_resonances(hs.extract_resonances(flow_const, params, trunc, h=0.05))
        vals = np.sort_complex(res.values())
        if vals.size != targets.size:
            _report(2, "constant-roof spectrum", False,
                    f"{vals.size} eigenvalues for {targets.size} targets")
        worst = max(worst, float(np.max(np.abs(vals - targets))))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _report(2, "constant-roof spectrum", ok,
            f"max |lambda - 2 pi j| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_time_changed_oracle(flow, trunc):
    tbar = quad(lambda t: 1.0 / flow.time_change(t), 0.0, 1.0, epsabs=1e-13)[0]
    res = neutral_resonances(hs.extract_resonances(flow, OrderParams(), trunc, h=0.05))
    vals = res.values()
    targets = 2 * np.pi * np.arange(-trunc.j_max, trunc.j_max + 1) / tbar
    worst = 0.0
    for t in targets:
        worst = max(worst, float(np.min(np.abs(vals - t))))
    ok = worst < 1e-7 and vals.size == targets.size
    _report(3, "time-changed neutral oracle", ok,
            f"max |lambda - 2 pi j / T| = {worst:.2e} over {vals.size} values")


def test_criterion_4_upper_half_plane(ctx):
    ok, out = _check(ctx, "upper_half")
    ok = (ok and ctx.base.meta["dropped_residual"] == 0
          and all(e.residual <= 1e-10 for e in ctx.base.entries))
    _report(4, "upper half plane", ok,
            f"max Im = {out['max_im']:.2e} over {out['total_multiplicity']} eigenvalues")


def test_criterion_5_symmetry(ctx):
    ok, out = _check(ctx, "symmetry")
    _report(5, "reflection symmetry", ok,
            f"max pairing distance = {out['max_distance']:.2e}")


def test_criterion_6_intrinsic_spectrum(ctx):
    ok, out = _check(ctx, "intrinsic")
    _report(6, "intrinsic spectrum", ok,
            f"cross distance = {out['cross_distance']:.2e} over "
            f"{out['cross_pairs']} pairs, truncation drift = {out['drift']:.2e}")


def test_criterion_7_weyl_inequalities(ctx):
    import mpmath  # noqa: F401 - without it the check skips the oracle

    ok, out = _check(ctx, "weyl", seed=76)      # random matrices: seed + 1
    _report(7, "Weyl inequalities", ok,
            f"{out['sectors_audited']} sector matrices, worst log-margin = "
            f"{out['worst_margin']:.2e}, 20 random matrices cross-checked")


def test_criterion_8_ims_scaling(ctx):
    ok, out = _check(ctx, "ims", seed=8)
    _report(8, "localization-defect scaling", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in out["ratios"]))


def test_criterion_9_coherent_symbol(campaign):
    report, _ = campaign
    out = report["checks"]["coherent"]
    if "error" in out:
        _report(9, "coherent-state symbol", False, out["error"])
    powers = out["powers"]
    _report(9, "coherent-state symbol", report["verdicts"]["coherent"],
            f"fitted powers in [{min(powers):.3f}, {max(powers):.3f}] "
            f"at {len(powers)} phase points")


def test_criterion_10_counting_study(ctx):
    t0 = time.time()
    ok, out = _check(ctx, "counting")
    elapsed = time.time() - t0
    table = ", ".join(f"N({int(a)})={n}" for a, n in out["table"])
    _report(10, "counting study",
            ok and not out["undefined"] and elapsed < 1800.0,
            f"{table}; exponent {out['exponent']:.3f} <= 3.0, "
            f"control {out['control_exponent']:.3f}, {elapsed:.0f}s")


def test_full_campaign_passes_within_budget(campaign):
    report, elapsed = campaign
    failed = sorted(k for k, v in report["verdicts"].items() if not v)
    ok = report["passed"] and elapsed < 600.0 and "table" in report["checks"]["counting"]
    _report("*", "full campaign", ok,
            f"verdicts all true: {report['passed']}, failed={failed}, "
            f"{elapsed:.0f}s < 600s")
