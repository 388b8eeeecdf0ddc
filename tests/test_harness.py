import json
import sys

import numpy as np
import pytest

from catspec import harness as hs
from catspec import operator as op
from catspec.config import parse_config, DEFAULT_CONFIG
from catspec.errors import MultiplicityMismatch, UnresolvedWindow
from catspec.escape import OrderParams
from oracles import spectral_projector_rank


@pytest.fixture(scope="module")
def trunc():
    return op.Truncation(k_max=4, p_max=2, j_max=16)


@pytest.fixture(scope="module")
def base_res(flow, trunc):
    return hs.extract_resonances(flow, OrderParams(), trunc, h=0.05)


def synthetic(values, mults=None, sector="synthetic"):
    mults = mults or [1] * len(values)
    entries = [hs.ResonanceEntry(complex(v), m, 0.0, sector)
               for v, m in zip(values, mults)]
    return hs.ResonanceSet(entries)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_counting_box_validation():
    with pytest.raises(ValueError):
        hs.CountingBox(E=0.0, alpha=10.0, beta=1.0)
    with pytest.raises(ValueError):
        hs.CountingBox(E=1.0, alpha=-1.0, beta=1.0)


def test_count_in_box_cases():
    box = hs.CountingBox(E=1.0, alpha=20.0, beta=1.0)
    assert hs.count_in_box(synthetic([]), box) == 0
    lattice = synthetic([2 * np.pi * j for j in range(-10, 11)])
    oracle = sum(1 for j in range(-10, 11)
                 if abs(2 * np.pi * j - 20.0) <= np.sqrt(20.0))
    assert hs.count_in_box(lattice, box) == oracle
    # closed real edge: a value exactly on the boundary is included
    edge = synthetic([20.0 + np.sqrt(20.0)])
    assert hs.count_in_box(edge, box) == 1
    # strict imaginary floor
    floor = synthetic([20.0 - 1.0j])
    assert hs.count_in_box(floor, box) == 0
    # multiplicities are counted
    heavy = synthetic([20.0], mults=[7])
    assert hs.count_in_box(heavy, box) == 7


def test_counting_monotone_in_beta_and_width():
    vals = [18.0 - 0.2j, 20.0 - 0.8j, 22.0 - 1.5j, 25.0 - 0.1j]
    res = synthetic(vals)
    c1 = hs.count_in_box(res, hs.CountingBox(1.0, 20.0, 0.5))
    c2 = hs.count_in_box(res, hs.CountingBox(1.0, 20.0, 1.0))
    c3 = hs.count_in_box(res, hs.CountingBox(1.0, 20.0, 2.0))
    assert c1 <= c2 <= c3


def test_scaling_study_constant_roof_matches_lattice(flow_const, trunc):
    grid = [10, 20, 40, 80, 160]
    study = hs.scaling_study(flow_const, OrderParams(), trunc, 1.0, grid, 1.0)
    oracle = [sum(1 for j in range(-300, 301)
                  if abs(2 * np.pi * j - a) <= np.sqrt(a)) for a in grid]
    assert study.counts == oracle
    assert 0.2 <= study.exponent <= 0.7


def test_scaling_study_zero_counts_flagged(flow_const, trunc):
    study = hs.scaling_study(flow_const, OrderParams(), trunc, 1.0,
                             [10, 20, 40], beta=-0.5)
    # a floor above the real axis removes every count
    assert study.undefined and study.exponent is None


def test_synthetic_lattice_exponent():
    study = hs.synthetic_lattice_counts(1.0, [10, 20, 40, 80, 160])
    assert abs(study.exponent - 2.5) <= 0.1
    # oracle for one alpha by direct enumeration
    alpha = 20.0
    lo, hi = alpha - np.sqrt(alpha), alpha + np.sqrt(alpha)
    grid = np.arange(-26, 27)
    vv = np.stack(np.meshgrid(grid, grid, grid), -1).reshape(-1, 3)
    norms = np.linalg.norm(vv, axis=1)
    assert study.counts[1] == int(np.sum((norms >= lo) & (norms <= hi)))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def test_symmetry_check_cases():
    assert hs.symmetry_check(synthetic([2 * np.pi * j for j in range(-4, 5)])
                             ).max_distance == 0.0
    assert hs.symmetry_check(synthetic([1 - 1j, -1 - 1j])).max_distance == 0.0
    askew = synthetic([1 - 1j, -1.25 - 1j])
    assert hs.symmetry_check(askew).max_distance == pytest.approx(0.25)


def test_upper_half_check_cases():
    assert hs.upper_half_check(synthetic([2 * np.pi * j for j in range(3)])) == 0.0
    assert hs.upper_half_check(synthetic([0.1j])) == pytest.approx(0.1)
    assert hs.upper_half_check(hs.ResonanceSet([])) == float("-inf")


def test_intrinsic_check_same_set(base_res):
    out = hs.intrinsic_check(base_res, base_res, floor=-1.0)
    assert out.max_distance == 0.0 and not out.unmatched


def test_intrinsic_check_constant_roof_exact(flow_const, trunc):
    a = hs.extract_resonances(flow_const, OrderParams(), trunc, h=0.05,
                              include_orbit=False)
    b = hs.extract_resonances(flow_const, OrderParams(u=-6.0, s=12.0, t_avg=10.0,
                                                      aperture=0.08),
                              trunc, h=0.05, include_orbit=False)
    out = hs.intrinsic_check(a, b, floor=-1.0)
    assert out.max_distance < 1e-10
    targets = sorted(2 * np.pi * j for j in range(-trunc.j_max, trunc.j_max + 1))
    got = sorted(v.real for v in a.values())
    assert np.allclose(got, targets, atol=1e-10)


def intrinsic_trend(flow, params_a, params_b, truncations, floor, h=0.05):
    """Cross-parameter matching distance at increasing truncation levels."""
    out = []
    for tr in truncations:
        a = hs.extract_resonances(flow, params_a, tr, h=h)
        b = hs.extract_resonances(flow, params_b, tr, h=h)
        out.append(hs.intrinsic_check(a, b, floor).max_distance)
    return out


def test_intrinsic_trend_over_truncation_levels(flow):
    levels = [op.Truncation(k_max=k, p_max=2, j_max=12) for k in (2, 3, 4)]
    trend = intrinsic_trend(flow, OrderParams(),
                            OrderParams(u=-6.0, s=12.0, t_avg=10.0,
                                        aperture=0.08),
                            levels, floor=-1.0)
    assert len(trend) == 3
    assert all(d < 1e-6 for d in trend)


def test_intrinsic_check_multiplicity_mismatch(base_res):
    other = hs.ResonanceSet(list(base_res.entries[:-1]))
    with pytest.raises(MultiplicityMismatch):
        hs.intrinsic_check(base_res, other, floor=-1e9)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extracted_spectrum_only_in_window(flow, trunc, base_res):
    omega = 2 * np.pi / flow.period
    for e in base_res.entries:
        if e.sector_key == "neutral":
            assert abs(e.value.real) <= omega * (trunc.j_max + 0.5)
        else:
            assert abs(e.value.real) <= omega * (trunc.j_max - trunc.edge_guard + 0.5)
        assert e.residual <= 1e-10
    assert base_res.meta["dropped_residual"] == 0


def test_extraction_orbit_multiplicity(flow, trunc):
    # multiplicity of each orbit entry equals the summed cell counts, and
    # the quadrature projector confirms the per-sector algebraic count
    res = hs.extract_resonances(flow, OrderParams(), trunc, h=0.05)
    cells = {s.key: s.n_cells
             for s in op.enumerate_orbits(flow.cat, trunc.k_max, trunc.p_max)}
    total_cells = sum(cells.values())
    orbit_entries = [e for e in res.entries if e.sector_key != "neutral"]
    assert orbit_entries
    assert all(e.multiplicity == total_cells for e in orbit_entries)
    sector = op.enumerate_orbits(flow.cat, 2, 2)[0]
    tr_small = op.Truncation(k_max=2, p_max=2, j_max=2)
    blk = op.build_generator(flow, sector, tr_small)
    cell_pairs = op.eigendecompose(op.orbit_cell_block(flow, tr_small))
    target = cell_pairs[len(cell_pairs) // 2].value
    rank = spectral_projector_rank(blk.matrix, target, 1.0)
    assert rank == sector.n_cells


def test_clustering_merges_close_values():
    entries = [hs.ResonanceEntry(1.0 + 0j, 1, 0.0, "a"),
               hs.ResonanceEntry(1.0 + 5e-8j, 2, 0.0, "b"),
               hs.ResonanceEntry(2.0 + 0j, 1, 0.0, "a")]
    out = hs._cluster(entries, 1e-7)
    assert len(out) == 2
    assert out[0].multiplicity == 3


def test_unresolved_window_raised(flow):
    tr = op.Truncation(k_max=2, p_max=2, j_max=4)
    with pytest.raises(UnresolvedWindow):
        hs.scaling_study(flow, OrderParams(), tr, 1.0, [1000.0], 1.0,
                         window_margin=-200)


# ---------------------------------------------------------------------------
# singular-value audits
# ---------------------------------------------------------------------------

def test_weyl_audit_normal_matrix_equality():
    m = np.diag([1.0 + 1j, -2.0, 0.5j])
    audit = hs.weyl_audit(m, 0.3)
    assert audit.verdict
    # normal case: products agree at every prefix
    assert abs(audit.worst_margin) < 1e-12


def test_weyl_audit_jordan_block():
    audit = hs.weyl_audit(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0,
                          eigenvalues=[0.0, 0.0])
    assert audit.verdict


def test_weyl_audit_random_vs_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        audit = hs.weyl_audit(m, 0.2 + 0.1j)
        assert audit.verdict
    # high-precision oracle on a few of them
    for _ in range(3):
        m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        assert hs.weyl_oracle(m, 0.2 + 0.1j)
        assert hs.weyl_audit(m, 0.2 + 0.1j).verdict


def test_weyl_audit_counts_reported(flow, escape):
    sector = op.enumerate_orbits(flow.cat, 2, 2)[0]
    tr = op.Truncation(k_max=2, p_max=2, j_max=6)
    wg = op.apply_weight(op.build_generator(flow, sector, tr), escape, 0.05)
    cell_vals = np.linalg.eigvals(op.orbit_cell_block(flow, tr))
    evs = np.concatenate([cell_vals] * sector.n_cells) * 0.05
    audit = hs.weyl_audit(wg.rescaled(), 1 + 1j, eigenvalues=evs)
    assert audit.verdict


def test_min_singular_value_resolvent_bound():
    # sanity relation: smallest singular value of (P - z) is at least the
    # spectral distance over the eigenvector condition number
    rng = np.random.default_rng(6)
    m = rng.normal(size=(8, 8))
    vals, vecs = np.linalg.eig(m)
    kappa = np.linalg.cond(vecs)
    for z in (0.3 + 0.2j, -1.0 + 1j):
        smin = op.singular_values(m, z)[0]
        dist = np.min(np.abs(vals - z))
        assert smin >= dist / kappa - 1e-12


# ---------------------------------------------------------------------------
# disk inclusion
# ---------------------------------------------------------------------------

def test_disk_box_check_cases():
    empty = hs.ResonanceSet([])
    out = hs.disk_box_check(empty, 1.0, 1.0, 2.5, 0.05)
    assert out.ok and out.precondition_ok and out.n_in_box == 0
    # synthetic eigenvalue at E / h sits on the real axis inside the disk
    h = 0.05
    res = synthetic([1.0 / h])
    out = hs.disk_box_check(res, 1.0, 1.0, 2.5, h)
    assert out.ok and out.n_in_box == 1
    # violated hypothesis is reported, not silently accepted
    out = hs.disk_box_check(res, 1.0, 1.0, 2.0, h)
    assert not out.precondition_ok and not out.ok


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_campaign_determinism(flow):
    text = DEFAULT_CONFIG.replace(
        "checks = escape,upper_half,symmetry,intrinsic,weyl,ims,garding,coherent,counting,disk",
        "checks = upper_half,symmetry,disk").replace("k_max = 6", "k_max = 3")
    cfg = parse_config(text)
    r1, _ = hs.run_campaign(flow, cfg)
    r2, _ = hs.run_campaign(flow, cfg)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["verdicts"] == {"upper_half": True, "symmetry": True, "disk": True}


def test_campaign_guard_turns_a_raising_check_into_a_failure(flow, monkeypatch):
    def broken(ctx):
        raise RuntimeError("seeded defect")

    monkeypatch.setitem(hs.CHECKS, "disk", broken)
    cfg = parse_config("[campaign]\nchecks = upper_half,disk\n[solver]\nk_max = 3\n")
    report, _ = hs.run_campaign(flow, cfg)
    assert report["verdicts"] == {"upper_half": True, "disk": False}
    assert report["checks"]["disk"] == {"error": "RuntimeError: seeded defect"}
    assert report["passed"] is False


def test_weyl_check_without_mpmath_reports_no_oracle(flow, monkeypatch):
    # the skipped cross-check reads null, not true; the verdict rests on
    # the sector audits and the random-matrix audits
    monkeypatch.setitem(sys.modules, "mpmath", None)
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 1\nj_max = 8\n")
    ok, out = hs.CHECKS["weyl"](hs.CampaignContext(flow, cfg))
    assert out["random_oracle_ok"] is None
    assert out["sectors_audited"] > 0
    assert ok is True
