import json
import sys

import mpmath as mp
import numpy as np
import pytest

from catspec import harness as hs
from catspec import operator as op
from catspec.config import parse_config, DEFAULT_CONFIG
from catspec.errors import (MultiplicityMismatch, UnresolvedState, UnresolvedWindow,
                            WeightOverflow)
from catspec.escape import EscapeFunction, OrderParams
from oracles import (coherent_study_per_sector, spectral_projector_rank, weyl_oracle_dense,
                     weyl_spectra_dense)


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


def test_fits_from_one_abscissa_are_undefined(flow_const, trunc, recwarn):
    # a slope needs two distinct abscissae; no RankWarning, no number
    assert hs.fit_slope([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None
    assert hs.fit_slope([1.0, 2.0], [0.0, 1.0]) == pytest.approx(1.0)
    study = hs.scaling_study(flow_const, OrderParams(), trunc, 1.0, [10], beta=1.0)
    assert study.counts[0] > 0 and study.undefined and study.exponent is None
    control = hs.synthetic_lattice_counts(1.0, [20, 20])
    assert control.undefined and control.exponent is None
    assert not recwarn.list


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


def test_min_cost_matching_equals_scipy():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(5)
    for n in range(41):
        cost = rng.random((n, n))
        rows, cols = linear_sum_assignment(cost)
        assert np.array_equal(hs.min_cost_matching(cost), cols)


def test_min_cost_matching_with_ties_is_optimal():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(6)
    for n in range(1, 41):
        cost = rng.integers(0, 4, size=(n, n)).astype(float)
        rows, cols = linear_sum_assignment(cost)
        mine = hs.min_cost_matching(cost)
        assert sorted(mine) == list(range(n))
        assert cost[np.arange(n), mine].sum() == cost[rows, cols].sum()
    # constant costs: the identity, as scipy gives
    assert list(hs.min_cost_matching(np.ones((5, 5)))) == [0, 1, 2, 3, 4]


def test_min_cost_matching_rejects_bad_costs():
    with pytest.raises(ValueError, match="square"):
        hs.min_cost_matching(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        hs.min_cost_matching(np.array([[0.0, np.nan], [1.0, 0.0]]))


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


# the weyl check's shift on the default config (E = 1)
Z_E = complex(1.0, 1.0)


def _relative_gap(a, b):
    return max(abs(x - y) / y for x, y in zip(a, b))


@pytest.mark.parametrize("seed", [1, 77])
def test_weyl_spectra_match_the_dense_route(seed):
    # exact characteristic polynomials against mpmath's dense SVD and QR
    # eigensolver on the weyl check's 20 matrices of campaign seed `seed`
    for m in hs.weyl_random_matrices(seed):
        svals, dist = hs.weyl_spectra(m, Z_E)
        dense_s, dense_d = weyl_spectra_dense(m, Z_E)
        assert _relative_gap(svals, dense_s) <= 1e-30
        assert _relative_gap(dist, dense_d) <= 1e-30
        assert hs.weyl_prefix_ok(svals, dist) and hs.weyl_prefix_ok(dense_s, dense_d)


def test_weyl_oracle_holds_on_the_campaign_seeds():
    for seed in range(8):
        assert all(hs.weyl_oracle(m, Z_E) for m in hs.weyl_random_matrices(seed))


def test_weyl_oracle_exact_zero_and_repeated_roots():
    rng = np.random.default_rng(3)
    upper = np.triu(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    # z_e on the diagonal: a zero singular value and a zero distance
    tri = upper.copy()
    tri[0, 0] = Z_E
    # a Jordan block at z_e: every distance 0, singular values 0, 1, 1, 1
    jordan = Z_E * np.eye(4) + np.diag(np.ones(3), 1)
    for m in (tri, jordan):
        assert hs.weyl_oracle(m, Z_E) and weyl_oracle_dense(m, Z_E)
    svals, dist = hs.weyl_spectra(jordan, Z_E)
    assert svals == [0, 1, 1, 1] and dist == [0, 0, 0, 0]
    # lower on the diagonal the dense SVD leaves s_min near 1e-41 against an
    # exact zero distance, and its verdict is False; the exact route reads
    # the zero roots off the trailing coefficients
    for pos in range(6):
        tri = upper.copy()
        tri[pos, pos] = Z_E
        svals, dist = hs.weyl_spectra(tri, Z_E)
        assert svals[0] == 0 and dist[0] == 0 and hs.weyl_oracle(tri, Z_E)
    # a Jordan block away from z_e and a repeated normal eigenvalue need the
    # exact square-free split
    shifted = (Z_E + 0.5) * np.eye(4) + np.diag(np.ones(3), 1)
    normal = np.diag([1.0 + 1j, -2.0, 0.5j, 0.5j, 3.0])
    for m in (shifted, normal):
        assert hs.weyl_oracle(m, Z_E) and weyl_oracle_dense(m, Z_E)


def test_weyl_oracle_negative_control():
    # a normal matrix is the equality case: the oracle holds, and singular
    # values raised by 1e-25 relative, beyond the 1e-30 slack, fail it
    m = np.diag([1.0 + 1j, -2.0, 0.5j, 3.0])
    svals, dist = hs.weyl_spectra(m, 0.3)
    assert hs.weyl_oracle(m, 0.3) and hs.weyl_prefix_ok(svals, dist)
    with mp.workdps(50):
        raised = [s * (1 + mp.mpf(10) ** -25) for s in svals]
    assert not hs.weyl_prefix_ok(raised, dist)


def test_weyl_oracle_uses_no_lapack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK routine called")

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd", "qr", "solve",
                 "det", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(np, "roots", forbidden)
    assert hs.weyl_oracle(hs.weyl_random_matrices(0)[0], Z_E)


def test_weyl_audit_counts_reported(flow, escape):
    sector = op.enumerate_orbits(flow.cat, 2, 2)[0]
    tr = op.Truncation(k_max=2, p_max=2, j_max=6)
    hp = 0.05 * op.apply_weight(op.build_generator(flow, sector, tr), escape, 0.05)
    cell_vals = np.linalg.eigvals(op.orbit_cell_block(flow, tr))
    evs = np.concatenate([cell_vals] * sector.n_cells) * 0.05
    audit = hs.weyl_audit(hp, 1 + 1j, eigenvalues=evs)
    assert audit.verdict


def _weyl_on_k_max_3(monkeypatch):
    """Run the weyl check on k_max = 3 and count the singular_values calls."""
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\n")
    flow = cfg.flow()
    calls = []
    svals = op.singular_values

    def counted(p, z_e=0.0):
        calls.append(np.shape(p)[0])
        return svals(p, z_e)

    monkeypatch.setattr(op, "singular_values", counted)
    ok, payload = hs.CHECKS["weyl"](hs.CampaignContext(flow, cfg))
    n_orbit = len(op.enumerate_orbits(flow.cat, 3, cfg.truncation.p_max))
    return ok, payload, len(calls), n_orbit


def test_weyl_check_shares_mirror_audits_exactly(monkeypatch):
    # each k0, -k0 pair is audited once: 1 neutral + half the orbit
    # sectors + 20 random matrices, and the payload is the one of a run
    # that audits every sector on its own (a key no two sectors share)
    ok, shared, n_shared, n_orbit = _weyl_on_k_max_3(monkeypatch)
    assert n_orbit % 2 == 0 and n_shared == 1 + n_orbit // 2 + 20
    monkeypatch.setattr(op, "mirror_key", tuple)
    ok_direct, direct, n_direct, _ = _weyl_on_k_max_3(monkeypatch)
    assert n_direct == 1 + n_orbit + 20
    assert ok is ok_direct is True
    assert shared == direct
    assert shared["sectors_audited"] == 1 + n_orbit


def test_weyl_check_negative_control_inflated_singular_values(monkeypatch):
    # singular values scaled by 1.5 break every audited prefix: the sector
    # audits fail, not only the random matrices
    svals = op.singular_values
    monkeypatch.setattr(op, "singular_values", lambda p, z_e=0.0: 1.5 * svals(p, z_e))
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\n")
    ok, payload = hs.CHECKS["weyl"](hs.CampaignContext(cfg.flow(), cfg))
    assert ok is False
    assert payload["worst_margin"] < -np.log(1.5)


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
# coherent-state symbol study
# ---------------------------------------------------------------------------

def test_coherent_study_unresolved_at_small_j_max(flow):
    points = hs.default_symbol_points(flow)
    # point 8 keeps 97.9% of its mass at j_max = 2, below the 98% floor
    with pytest.raises(UnresolvedState, match="point 8"):
        hs.coherent_symbol_study(flow, OrderParams(), points, [0.14], j_max=2)
    study = hs.coherent_symbol_study(flow, OrderParams(), points, [0.14, 0.1], j_max=3)
    assert len(study.powers) == len(points)


def test_coherent_j_max_grows_below_the_default_h(flow):
    points = hs.default_symbol_points(flow)
    # the floor holds at every h of the default and benchmark configs
    for h in (0.14, 0.1, 0.05, 0.025, 0.0125):
        assert hs.coherent_j_max(flow, points, h) == hs.COHERENT_J_FLOOR == 12
    assert hs.coherent_j_max(flow, points, 0.005) == 22


def test_coherent_study_resolves_a_fine_h(flow):
    # at j_max = 12 point 8 keeps only 97.3% of its mass at h = 0.005
    points = hs.default_symbol_points(flow)
    study = hs.coherent_symbol_study(flow, OrderParams(), points, [0.005])
    assert all(np.isfinite(e[0.005]) for e in study.errors)


def test_coherent_study_from_one_h_is_undefined(flow, recwarn):
    points = hs.default_symbol_points(flow)
    study = hs.coherent_symbol_study(flow, OrderParams(), points, [0.14, 0.14], j_max=3)
    assert study.undefined and study.powers == [None] * len(points)
    assert all(len(e) == 1 for e in study.errors)
    assert not recwarn.list
    study = hs.coherent_symbol_study(flow, OrderParams(), points, [0.14, 0.1], j_max=3)
    assert not study.undefined and None not in study.powers


def test_coherent_study_weight_overflow_on_orbit_sectors(flow, escape):
    h = 1e100
    points = hs.default_symbol_points(flow)[:1]
    # the neutral weight is the identity here, so only an orbit sector's
    # weight can overflow
    neutral = op.build_generator(flow, op.NeutralSector(), op.Truncation(k_max=3, j_max=12))
    assert np.all(op.mode_log_weight(flow, neutral.sector, neutral.basis, escape, h) == 0.0)
    with pytest.raises(WeightOverflow):
        hs.coherent_symbol_study(flow, OrderParams(), points, [h])


def test_coherent_study_overflow_names_an_orbit_sector(flow):
    # at h = 1e300 the neutral weight overflows too; the batched pass
    # weighs the orbit sectors first and names the first that overflows
    points = hs.default_symbol_points(flow)[:1]
    with pytest.raises(WeightOverflow, match=r"at h = 1e\+300 overflows on sector "
                       r"orbit-?\d+,-?\d+ \(\d+ modes, \|j\| <= 12\)") as info:
        hs.coherent_symbol_study(flow, OrderParams(), points, [1e300])
    assert "neutral" not in str(info.value)


@pytest.mark.parametrize("params", [
    OrderParams(), OrderParams(u=-6.0, s=12.0, t_avg=10.0, aperture=0.08),
], ids=["escape", "escape_alt"])
def test_coherent_study_matches_the_per_sector_loop(flow, params):
    # bit for bit: a batch moves some log weights by up to 1e-13 (the gemv
    # rows of OpenBLAS's remainder kernel are other rows), no error or
    # power; with the second order, adding the sector terms in another
    # order moves point 8's error at h = 0.1 in the last bit
    points = hs.default_symbol_points(flow)
    h_list = [0.14, 0.1]
    study = hs.coherent_symbol_study(flow, params, points, h_list)
    errors, powers = coherent_study_per_sector(flow, params, points, h_list)
    assert study.errors == errors
    assert study.powers == powers


def test_coherent_study_weighs_each_h_in_runs(flow, monkeypatch):
    calls = []
    escape_value = EscapeFunction.escape_value

    def counted(self, adapted, orders=None):
        calls.append(np.size(adapted) // 3)
        return escape_value(self, adapted, orders)

    monkeypatch.setattr(EscapeFunction, "escape_value", counted)
    modes = []
    run_log_weights = op._run_log_weights

    def run_modes(flow, escape, h, run):
        modes.append(sum(len(basis) for _, basis, _ in run))
        return run_log_weights(flow, escape, h, run)

    monkeypatch.setattr(op, "_run_log_weights", run_modes)
    points = hs.default_symbol_points(flow)
    for h in (0.14, 0.1):
        calls.clear()
        modes.clear()
        hs.coherent_symbol_study(flow, OrderParams(), points, [h])
        # four single points behind each packet's escape_derivative
        assert calls[:40] == [1] * 40
        # each (cell, |j|) weighed once: one sector per k0, -k0 pair, and
        # the neutral sector, each at j = 0, ..., j_max
        k_max = hs.coherent_k_max(points, h)
        cells = {op.mirror_key(op.sector_frequencies(flow.cat, s)): s.n_cells
                 for s in op.enumerate_orbits(flow.cat, k_max, 2)}
        neutral = op.build_generator(flow, op.NeutralSector(),
                                     op.Truncation(k_max=k_max, j_max=12))
        assert sum(calls[40:]) == 13 * sum(cells.values()) + (neutral.dim + 1) // 2
        # a run of at most WEIGHT_ROWS modes closes only when the next
        # sector does not fit
        assert len(modes) == len(calls) - 40 and max(modes) <= op.WEIGHT_ROWS
        assert all(a + b > op.WEIGHT_ROWS for a, b in zip(modes, modes[1:]))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_campaign_determinism(flow):
    text = DEFAULT_CONFIG.replace(
        "checks = escape,upper_half,symmetry,intrinsic,weyl,ims,garding,coherent,counting,disk",
        "checks = upper_half,symmetry,disk").replace("k_max = 6", "k_max = 3")
    cfg = parse_config(text)
    r1 = hs.run_campaign(flow, cfg)
    r2 = hs.run_campaign(flow, cfg)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["verdicts"] == {"upper_half": True, "symmetry": True, "disk": True}


def test_checks_that_compare_nothing_fail(flow):
    # an empty spectrum passes none of the comparisons; the payloads keep
    # the helpers' values
    cfg = parse_config("[solver]\nk_max = 3\n")
    ctx = hs.CampaignContext(flow, cfg)
    ctx.base = hs.ResonanceSet([], {"cluster_radius": cfg.cluster_radius})
    ok, payload = hs.CHECKS["upper_half"](ctx)
    assert ok is False and payload["max_im"] == float("-inf")
    ok, payload = hs.CHECKS["symmetry"](ctx)
    assert ok is False and payload == {"max_distance": 0.0, "pairs": 0}
    ok, payload = hs.CHECKS["disk"](ctx)
    assert ok is False and payload["ok"] is True and payload["n_in_box"] == 0


def test_campaign_guard_turns_a_raising_check_into_a_failure(flow, monkeypatch):
    def broken(ctx):
        raise RuntimeError("seeded defect")

    monkeypatch.setitem(hs.CHECKS, "disk", broken)
    cfg = parse_config("[campaign]\nchecks = upper_half,disk\n[solver]\nk_max = 3\n")
    report = hs.run_campaign(flow, cfg)
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
