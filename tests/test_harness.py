import json
import logging
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import oracles

from catspec import charpoly
from catspec import harness as hs
from catspec import operator as op
from catspec.config import parse_config, DEFAULT_CONFIG
from catspec.cotangent import CotangentPoint, adapted_components, h0, lifted_flow
from catspec.errors import (MultiplicityMismatch, NonConvergence, UnresolvedState,
                            WeightOverflow)
from catspec.escape import AUDIT_SAMPLES, EscapeFunction, _richardson
from catspec.model import BasePoint, MappingTorusFlow
from oracles import (berkowitz, coherent_study_per_sector, gram, lattice_counts_meshgrid,
                     neutral_resonances, spectral_projector_rank, weyl_audit_loop,
                     weyl_oracle_dense, weyl_prefix_ok, weyl_spectra, weyl_spectra_dense)


_DEFAULT = parse_config(DEFAULT_CONFIG)
#: the default config's residual_tol and cluster_radius
TOLS = (_DEFAULT.residual_tol, _DEFAULT.cluster_radius)
#: a second order set
ALT_ORDER = replace(_DEFAULT.escape, u=-6.0, s=12.0, t_avg=10.0, aperture=0.08)


@pytest.fixture(scope="module")
def trunc():
    return replace(_DEFAULT.truncation, k_max=4, p_max=2, j_max=16)


@pytest.fixture(scope="module")
def escape_const(flow_const):
    return EscapeFunction(flow_const, _DEFAULT.escape)


@pytest.fixture(scope="module")
def base_res(escape, trunc):
    return hs.extract_resonances(hs.SolveStore(escape.flow), escape, trunc, 0.05, *TOLS)


def synthetic(values, mults=None, sector="synthetic"):
    mults = mults or [1] * len(values)
    entries = [hs.ResonanceEntry(complex(v), m, 0.0, sector)
               for v, m in zip(values, mults)]
    return hs.ResonanceSet(entries, {})


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

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


def test_scaling_study_constant_roof_matches_lattice(escape_const, trunc):
    grid = [10, 20, 40, 80, 160]
    study = hs.scaling_study(hs.SolveStore(escape_const.flow), escape_const, trunc, 1.0, grid,
                             1.0, *TOLS)
    oracle = [sum(1 for j in range(-300, 301)
                  if abs(2 * np.pi * j - a) <= np.sqrt(a)) for a in grid]
    assert study.counts == oracle
    assert 0.2 <= study.exponent <= 0.7


def test_scaling_study_zero_counts_flagged(escape_const, trunc):
    study = hs.scaling_study(hs.SolveStore(escape_const.flow), escape_const, trunc, 1.0,
                             [10, 20, 40], -0.5, *TOLS)
    # a floor above the real axis removes every count
    assert study.undefined and study.exponent is None


def test_fits_from_one_abscissa_are_undefined(escape_const, trunc, recwarn):
    # a slope needs two distinct abscissae; no RankWarning, no number
    assert hs.fit_slope([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None
    assert hs.fit_slope([1.0, 2.0], [0.0, 1.0]) == pytest.approx(1.0)
    study = hs.scaling_study(hs.SolveStore(escape_const.flow), escape_const, trunc, 1.0, [10],
                             1.0, *TOLS)
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

@pytest.mark.parametrize("E, grid", [(1.0, [10.0, 20.0, 40.0, 80.0, 160.0]),
                                     (-0.7, [3.0, 7.5, 33.0]), (2.5, [1.0, 12.25])])
def test_synthetic_lattice_counts_equal_the_meshgrid(E, grid):
    assert hs.synthetic_lattice_counts(E, grid).counts == lattice_counts_meshgrid(E, grid)


def test_synthetic_lattice_counts_memory_is_linear_in_alpha():
    # the meshgrid form peaks at about 96 MB here
    tracemalloc.start()
    try:
        study = hs.synthetic_lattice_counts(1.0, [640.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert study.counts == [260563962]          # the meshgrid form's count


def test_symmetry_check_cases():
    assert hs.symmetry_check(synthetic([2 * np.pi * j for j in range(-4, 5)])
                             ).max_distance == 0.0
    assert hs.symmetry_check(synthetic([1 - 1j, -1 - 1j])).max_distance == 0.0
    askew = synthetic([1 - 1j, -1.25 - 1j])
    assert hs.symmetry_check(askew).max_distance == pytest.approx(0.25)


def test_symmetry_check_unequal_multiplicities_fail_by_verdict():
    # one entry's multiplicity changed: it and its reflection are unmatched,
    # the other pairs stay matched, and the check fails by its verdict with
    # the payload keys of a pass
    values = [1 - 1j, -1 - 1j, -0.5j, 2 - 0.25j, -2 - 0.25j]
    assert not hs.symmetry_check(synthetic(values, [1, 1, 1, 3, 3])).unmatched
    changed = synthetic(values, [1, 1, 1, 3, 2])
    sym = hs.symmetry_check(changed)
    assert [(a, b) for a, b, _ in sym.unmatched] == [(2 - 0.25j, 2 - 0.25j),
                                                     (-2 - 0.25j, -2 - 0.25j)]
    assert len(sym.pairs) == 3 and sym.max_distance == 0.0
    ctx = hs.CampaignContext(parse_config("[solver]\nk_max = 3\n"))
    ctx.solved["base"] = changed
    ok, payload = hs.CHECKS["symmetry"](ctx)
    assert ok is False and payload == {"max_distance": 0.0, "pairs": 3}


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
    assert hs.upper_half_check(hs.ResonanceSet([], {})) == float("-inf")


def test_intrinsic_check_same_set(base_res):
    out = hs.intrinsic_check(base_res, base_res, floor=-1.0)
    assert out.max_distance == 0.0 and not out.unmatched


def test_intrinsic_check_constant_roof_exact(flow_const, escape_const, trunc):
    a = neutral_resonances(hs.extract_resonances(hs.SolveStore(flow_const), escape_const,
                                                 trunc, 0.05, *TOLS))
    b = neutral_resonances(hs.extract_resonances(hs.SolveStore(flow_const), EscapeFunction(
        flow_const, ALT_ORDER), trunc, 0.05, *TOLS))
    out = hs.intrinsic_check(a, b, floor=-1.0)
    assert out.max_distance < 1e-10
    targets = sorted(2 * np.pi * j for j in range(-trunc.j_max, trunc.j_max + 1))
    got = sorted(v.real for v in a.values())
    assert np.allclose(got, targets, atol=1e-10)


def intrinsic_trend(flow, params_a, params_b, truncations, floor, h=0.05):
    """Cross-parameter matching distance at increasing truncation levels."""
    out = []
    escape_a, escape_b = EscapeFunction(flow, params_a), EscapeFunction(flow, params_b)
    for tr in truncations:
        a = hs.extract_resonances(hs.SolveStore(flow), escape_a, tr, h, *TOLS)
        b = hs.extract_resonances(hs.SolveStore(flow), escape_b, tr, h, *TOLS)
        out.append(hs.intrinsic_check(a, b, floor).max_distance)
    return out


def test_intrinsic_trend_over_truncation_levels(flow):
    levels = [replace(_DEFAULT.truncation, k_max=k, p_max=2, j_max=12) for k in (2, 3, 4)]
    trend = intrinsic_trend(flow, _DEFAULT.escape, ALT_ORDER, levels, floor=-1.0)
    assert len(trend) == 3
    assert all(d < 1e-6 for d in trend)


def test_intrinsic_check_multiplicity_mismatch(base_res):
    other = hs.ResonanceSet(list(base_res.entries[:-1]), {})
    with pytest.raises(MultiplicityMismatch):
        hs.intrinsic_check(base_res, other, floor=-1e9)


def test_intrinsic_check_unmatches_unequal_multiplicities(base_res):
    # a pair at distance 0 with unequal multiplicities is unmatched, not raised
    entries = list(base_res.entries)
    entries[0] = replace(entries[0], multiplicity=entries[0].multiplicity + 1)
    out = hs.intrinsic_check(base_res, hs.ResonanceSet(entries, base_res.meta), floor=-1e9)
    assert len(out.unmatched) == 1 and out.unmatched[0][2] == 0.0
    assert len(out.pairs) == len(entries) - 1


def test_intrinsic_check_fails_on_a_drifted_pair(monkeypatch):
    # one grown-truncation entry above the floor moved by 0.05, beyond the
    # matching cutoff: its pair is unmatched, the drift distance stays 0.0
    # and the check fails on the unmatched pair
    cfg = parse_config("[campaign]\nchecks = intrinsic\n")
    spectrum = hs.CampaignContext.spectrum

    def drifted(self, escape, truncation):
        res = spectrum(self, escape, truncation)
        if truncation.k_max == cfg.truncation.k_max + 4:
            entries = list(res.entries)
            k = next(i for i, e in enumerate(entries) if e.value.imag > cfg.floor)
            entries[k] = replace(entries[k], value=entries[k].value + 0.05)
            res = hs.ResonanceSet(entries, res.meta)
        return res

    ok, payload = hs.CHECKS["intrinsic"](hs.CampaignContext(cfg))
    assert ok is True and payload["drift"] == 0.0
    monkeypatch.setattr(hs.CampaignContext, "spectrum", drifted)
    ok, payload = hs.CHECKS["intrinsic"](hs.CampaignContext(cfg))
    assert ok is False and payload["drift"] == 0.0
    assert payload["drift_pairs"] == payload["cross_pairs"] - 1


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


def test_extraction_orbit_multiplicity(flow, escape, trunc):
    # multiplicity of each orbit entry equals the summed cell counts, and
    # the quadrature projector confirms the per-sector algebraic count
    res = hs.extract_resonances(hs.SolveStore(escape.flow), escape, trunc, 0.05, *TOLS)
    cells = {s.key: s.n_cells
             for s in op.enumerate_orbits(flow.cat, trunc.k_max, trunc.p_max)}
    total_cells = sum(cells.values())
    orbit_entries = [e for e in res.entries if e.sector_key != "neutral"]
    assert orbit_entries
    assert all(e.multiplicity == total_cells for e in orbit_entries)
    sector = op.enumerate_orbits(flow.cat, 2, 2)[0]
    tr_small = replace(_DEFAULT.truncation, k_max=2, p_max=2, j_max=2)
    blk = op.build_generator(flow, sector, tr_small)
    cell_pairs = op.eigendecompose(op.orbit_cell_block(flow, tr_small))
    target = cell_pairs[len(cell_pairs) // 2].value
    rank = spectral_projector_rank(blk.matrix, target, 1.0)
    assert rank == sector.n_cells


def test_extraction_lists_each_cell_eigenvalue_once():
    # on the default config's base and grown truncations, the orbit entries
    # are the in-window cell eigenvalues bit for bit, each once, keyed
    # "orbit", with the total cell count (352 on the base) as multiplicity
    flow = _DEFAULT.flow()
    ctx = hs.CampaignContext(_DEFAULT)
    base = _DEFAULT.truncation
    grown = replace(base, k_max=base.k_max + 4, p_max=base.p_max + 2)
    omega = 2 * np.pi / flow.period
    key = lambda z: (z.real, z.imag)
    sizes = []
    for tr in (base, grown):
        res = ctx.spectrum(ctx.escape, tr)
        window = omega * (tr.j_max - tr.edge_guard + 0.5)
        cell = [p for p in op.eigendecompose(op.orbit_cell_block(flow, tr))
                if abs(p.value.real) <= window and p.residual <= _DEFAULT.residual_tol]
        orbit = [e for e in res.entries if e.sector_key != "neutral"]
        assert sorted((e.value for e in orbit), key=key) == sorted((p.value for p in cell),
                                                                  key=key)
        assert sorted(e.residual for e in orbit) == sorted(p.residual for p in cell)
        cells = sum(s.n_cells for s in op.enumerate_orbits(flow.cat, tr.k_max, tr.p_max))
        assert {(e.sector_key, e.multiplicity) for e in orbit} == {("orbit", cells)}
        sizes.append((len(orbit), cells))
    assert sizes[0] == (37, 352) and sizes[1][1] > 352


def test_dropped_residual_counts_every_dropped_eigenvalue():
    # at residual_tol = 1e-15 the base spectrum loses neutral eigenpairs and
    # in-window cell eigenpairs; each cell eigenpair stands for all cells
    cfg = replace(_DEFAULT, residual_tol=1e-15)
    flow, tr = cfg.flow(), cfg.truncation
    ctx = hs.CampaignContext(cfg)
    omega = 2 * np.pi / flow.period
    neutral = op.apply_weight(op.build_generator(flow, op.NeutralSector(), tr), ctx.escape,
                              cfg.h)
    neutral = [p for p in op.eigendecompose(neutral)
               if abs(p.value.real) <= omega * (tr.j_max + 0.5)]
    cell = [p for p in op.eigendecompose(op.orbit_cell_block(flow, tr))
            if abs(p.value.real) <= omega * (tr.j_max - tr.edge_guard + 0.5)]
    cells = sum(s.n_cells for s in op.enumerate_orbits(flow.cat, tr.k_max, tr.p_max))
    drops = [sum(p.residual > cfg.residual_tol for p in pairs) for pairs in (neutral, cell)]
    assert drops == [15, 26] and cells == 352
    assert ctx.base.meta["dropped_residual"] == 15 + 26 * 352
    assert sum(e.sector_key == "orbit" for e in ctx.base.entries) == len(cell) - 26


def test_clustering_merges_close_values():
    entries = [hs.ResonanceEntry(1.0 + 0j, 1, 0.0, "a"),
               hs.ResonanceEntry(1.0 + 5e-8j, 2, 0.0, "b"),
               hs.ResonanceEntry(2.0 + 0j, 1, 0.0, "a")]
    out = hs._cluster(entries, 1e-7)
    assert len(out) == 2
    assert out[0].multiplicity == 3


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
    audit = hs._audit_in_place(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 0.0,
                               [0.0, 0.0])
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


def _roots_agree(a, b, rel=Fraction(1, 10 ** 30)):
    """Whether the square roots of the squares a are within rel relative of
    those of b: (1 - rel)^2 b <= a <= (1 + rel)^2 b, exactly."""
    return all((1 - rel) ** 2 * y <= x <= (1 + rel) ** 2 * y for x, y in zip(a, b))


@pytest.mark.parametrize("seed", [1, 77])
def test_weyl_spectra_match_the_dense_route(seed):
    # exact characteristic polynomials against mpmath's dense SVD and QR
    # eigensolver on the weyl check's 20 matrices of campaign seed `seed`:
    # singular values and distances agree to 1e-30 relative
    for m in hs.weyl_random_matrices(seed):
        squares, dist2 = weyl_spectra(m, Z_E)
        dense_s, dense_d = weyl_spectra_dense(m, Z_E)
        assert _roots_agree(squares, dense_s) and _roots_agree(dist2, dense_d)
        assert weyl_prefix_ok(squares, dist2) and weyl_prefix_ok(dense_s, dense_d)


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
    squares, dist2 = weyl_spectra(jordan, Z_E)
    assert squares == [0, 1, 1, 1] and dist2 == [0, 0, 0, 0]
    # lower on the diagonal the dense SVD leaves s_min near 1e-41 against an
    # exact zero distance, and its verdict is False; the exact route reads
    # the zero roots off the trailing coefficients
    for pos in range(6):
        tri = upper.copy()
        tri[pos, pos] = Z_E
        squares, dist2 = weyl_spectra(tri, Z_E)
        assert squares[0] == 0 and dist2[0] == 0 and hs.weyl_oracle(tri, Z_E)
    # a Jordan block away from z_e and a repeated normal eigenvalue need the
    # exact square-free split
    shifted = (Z_E + 0.5) * np.eye(4) + np.diag(np.ones(3), 1)
    normal = np.diag([1.0 + 1j, -2.0, 0.5j, 0.5j, 3.0])
    for m in (shifted, normal):
        assert hs.weyl_oracle(m, Z_E) and weyl_oracle_dense(m, Z_E)


def test_weyl_oracle_negative_control():
    # a normal matrix is the equality case: the oracle holds, and singular
    # values raised by 1e-25 relative, beyond the 1e-30 slack, fail it,
    # compared exactly and by the certified bounds the oracle decides with
    m = np.diag([1.0 + 1j, -2.0, 0.5j, 3.0])
    squares, dist2 = weyl_spectra(m, 0.3)
    assert hs.weyl_oracle(m, 0.3) and weyl_prefix_ok(squares, dist2)
    raised = [s * (1 + Fraction(1, 10 ** 25)) ** 2 for s in squares]
    assert not weyl_prefix_ok(raised, dist2)
    [(eig, gram, _)] = charpoly.polynomials(m[None], 0.3)
    eig_roots, square_roots = charpoly.roots([eig, gram], hs.WEYL_DPS)
    assert hs._filtered_prefixes(square_roots, eig_roots, hs.WEYL_DPS) is True
    # each triple times (1 + 1e-25)**2, rounded down by far less than 1e-40
    up = (10 ** 25 + 1) ** 2
    raised = [(a * up // 10 ** 50, b * up // 10 ** 50, f) for a, b, f in square_roots]
    assert all(abs(a) > 10 ** 45 for a, _, _ in raised)
    assert hs._filtered_prefixes(raised, eig_roots, hs.WEYL_DPS) is False


def test_weyl_oracle_uses_no_lapack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK routine called")

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd", "qr", "solve",
                 "det", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(np, "roots", forbidden)
    assert hs.weyl_oracle(hs.weyl_random_matrices(0)[0], Z_E)


@pytest.fixture
def escalations(monkeypatch):
    """The polynomials handed to ``charpoly.roots`` at WEYL_DPS, one list per
    call."""
    calls = []
    roots = charpoly.roots

    def counted(polys, dps):
        if dps == hs.WEYL_DPS:
            calls.append(polys)
        return roots(polys, dps)

    monkeypatch.setattr(charpoly, "roots", counted)
    return calls


@pytest.fixture
def lifts(monkeypatch):
    """The number of ``charpoly.polynomials`` calls, in a one-item list."""
    count = [0]
    polynomials = charpoly.polynomials

    def counted(a, z):
        count[0] += 1
        return polynomials(a, z)

    monkeypatch.setattr(charpoly, "polynomials", counted)
    return count


def test_weyl_oracle_filter_decides_the_campaign_stacks(escalations, lifts):
    # one call on a stack of 20 matrices; every prefix k < n clears its
    # bound by far more than the 1e-13 certificate, so the filter alone
    # decides and no matrix escalates
    for seed in (0, 3):
        matrices = hs.weyl_random_matrices(seed)
        lifts[0] = 0
        assert hs.weyl_oracle(np.array(matrices), Z_E) is True
        assert lifts[0] == 1
        for m in matrices[:4]:
            eig, squares = charpoly.roots(charpoly.polynomials(m[None], Z_E)[0][:2],
                                          hs.WEYL_FILTER_DPS)
            assert hs._filtered_prefixes(squares, eig, hs.WEYL_FILTER_DPS) is True
    assert escalations == []


def test_weyl_oracle_negative_control_stops_at_the_filter(monkeypatch, escalations):
    # singular values raised by 1.5: the Gram lanes are those of 2.25 Bᴴ B.
    # B = 2 (m - 1/2) has even entries, so 2.25 Bᴴ B = (3 (m - 1/2))ᴴ (3 (m - 1/2))
    # is integral, and the kernel lifts its exact polynomial.  The k = n
    # identity fails, and so do the certified bounds of a prefix k < n
    m = np.diag([1.5, -2.5, 3.5 + 2j, -0.5 + 1j]) + np.diag([1.0, -2.0, 1j], 1)
    assert hs.weyl_oracle(m, 0.5) is True
    lanes = charpoly.gram

    def raised(b, p):
        q = p[:, None, None]
        return lanes(b, p) * 9 % q * (((q + 1) // 2) ** 2 % q) % q     # times 9 / 4

    monkeypatch.setattr(charpoly, "gram", raised)
    [(eig, squares, e)] = charpoly.polynomials(m[None], 0.5)
    b = 3 * (m - 0.5 * np.eye(4))
    assert e == 1 and squares == berkowitz(*gram(b.real.astype(int).tolist(),
                                                 b.imag.astype(int).tolist()))
    assert hs.weyl_oracle(m, 0.5) is False
    assert escalations == []
    eig_roots, square_roots = charpoly.roots([eig, squares], hs.WEYL_FILTER_DPS)
    assert hs._filtered_prefixes(square_roots, eig_roots, hs.WEYL_FILTER_DPS) is False


def test_weyl_oracle_escalates_on_equalities(escalations, lifts):
    # a normal matrix: every prefix is an equality, so the bounds certified
    # at WEYL_FILTER_DPS overlap and those at WEYL_DPS decide, once, on the
    # polynomials of the oracle's one charpoly.polynomials call
    m = np.diag([1.0 + 1j, -2.0, 0.5j, 3.0])
    assert hs.weyl_oracle(m, 0.3) is True
    assert lifts[0] == 1
    [(eig, gram, _)] = charpoly.polynomials(m[None], 0.3)
    assert len(escalations) == 1 and escalations[0] == [gram, eig]


def test_weyl_oracle_raises_on_a_prefix_undecided_at_weyl_dps(monkeypatch):
    # bounds at WEYL_DPS that still straddle the slack decide nothing: the
    # oracle raises instead of guessing.  A campaign stack is decided at
    # WEYL_FILTER_DPS and never reaches them
    decide = hs._filtered_prefixes

    def undecided(squares, eig, dps):
        return None if dps == hs.WEYL_DPS else decide(squares, eig, dps)

    monkeypatch.setattr(hs, "_filtered_prefixes", undecided)
    with pytest.raises(NonConvergence, match="undecided at 40 digits"):
        hs.weyl_oracle(np.diag([1.0 + 1j, -2.0, 0.5j, 3.0]), 0.3)
    assert hs.weyl_oracle(np.array(hs.weyl_random_matrices(0)), Z_E) is True


def test_weyl_oracle_identity_catches_a_corrupted_lift(monkeypatch, escalations):
    # a constant coefficient off by one fails det(Bᴴ B) = |det B|**2 before
    # any root is taken
    lift = charpoly.crt_lift

    def corrupted(res, p):
        out = lift(res, p)
        out[:, -1] += 1
        return out

    def no_roots(polys, dps):
        raise AssertionError("roots taken")

    monkeypatch.setattr(charpoly, "crt_lift", corrupted)
    monkeypatch.setattr(charpoly, "roots", no_roots)
    assert hs.weyl_oracle(np.array(hs.weyl_random_matrices(0)), Z_E) is False
    assert escalations == []


def test_weyl_audit_prefix_sums_repeat_the_loop(flow, escape):
    # the cumulative sums give the loop's audits bit for bit: the Jordan,
    # zero-distance, normal and random cases, and every sector of k_max = 3
    rng = np.random.default_rng(5)
    cases = [(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, [0.0, 0.0]),
             (np.diag([2.0, 3.0]), 0.0, [0.0, 3.0]),
             (np.diag([1.0 + 1j, -2.0, 0.5j]), 0.3, None)]
    cases += [(rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20)), 0.2 + 0.1j, None)
              for _ in range(5)]
    cfg = parse_config("[solver]\nk_max = 3\n")
    ctx = hs.CampaignContext(cfg)
    for sector, evs in _weyl_sectors(cfg):
        block = op.build_generator(cfg.flow(), sector, cfg.truncation)
        cases.append((cfg.h * op.apply_weight(block, ctx.escape, cfg.h), complex(cfg.E, 1.0),
                      evs))
    audits = [hs._audit_in_place(np.array(p, dtype=complex), z_e, evs) for p, z_e, evs in cases]
    assert audits == [weyl_audit_loop(p, z_e, evs) for p, z_e, evs in cases]
    assert audits[1] == hs.WeylAudit(False, float("-inf"))
    assert all(a.verdict for a in audits[:1] + audits[2:])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_weyl_audit_raises_non_convergence_on_non_finite_input(bad):
    # the audit takes eigenvalues alone, and keeps the error contract of a
    # dense solve: NonConvergence (a CatspecError), not LinAlgError; with the
    # eigenvalues given, the NaN singular values LAPACK returns raise too
    # instead of passing every prefix
    m = np.eye(4, dtype=complex)
    m[0, 3] = bad
    for evs in (None, np.ones(4)):
        with pytest.raises(NonConvergence):
            hs._audit_in_place(m.copy(), 1 + 1j, evs)


def test_weyl_audit_counts_reported(flow, escape):
    sector = op.enumerate_orbits(flow.cat, 2, 2)[0]
    tr = replace(_DEFAULT.truncation, k_max=2, p_max=2, j_max=6)
    hp = 0.05 * op.apply_weight(op.build_generator(flow, sector, tr), escape, 0.05)
    cell_vals = np.linalg.eigvals(op.orbit_cell_block(flow, tr))
    evs = np.concatenate([cell_vals] * sector.n_cells) * 0.05
    audit = hs._audit_in_place(hp.copy(), 1 + 1j, evs)
    assert audit.verdict


def _weyl_sectors(cfg):
    """The sectors the weyl check audits on cfg, with their eigenvalue lists
    (None for the neutral sector, whose audit takes its own)."""
    flow, tr = cfg.flow(), cfg.truncation
    cell_vals = np.array([p.value for p in op.eigendecompose(op.orbit_cell_block(flow, tr))])
    out = [(op.NeutralSector(), None)]
    for sector in op.enumerate_orbits(flow.cat, tr.k_max, tr.p_max):
        out.append((sector, np.concatenate([cell_vals] * sector.n_cells) * cfg.h))
    assert all(len(op.sector_basis(s, tr)) <= hs.WEYL_DIM_LIMIT for s, _ in out)
    return out


@pytest.mark.parametrize("orbit", [False, True])
def test_sector_weyl_audit_chain_is_exact(flow, escape, orbit):
    # the weyl check's chain on one block -- weigh, scale and shift in the
    # block's buffer, then audit -- repeats the out-of-place operations
    # h P - z_e I and weyl_audit(h P) bit for bit
    tr = replace(_DEFAULT.truncation, k_max=3, p_max=2, j_max=8)
    h, z_e = 0.05, 1 + 1j
    if orbit:
        sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
        cell_vals = np.array([p.value for p in op.eigendecompose(op.orbit_cell_block(flow, tr))])
        evs = np.concatenate([cell_vals] * sector.n_cells) * h
    else:
        sector, evs = op.NeutralSector(), None
    hp = h * op.apply_weight(op.build_generator(flow, sector, tr), escape, h)
    ref = hp - z_e * np.eye(hp.shape[0])
    block = op.build_generator(flow, sector, tr)
    a = op.conjugate_by_diagonal(block.matrix, op.mode_log_weight(sector, block.basis, escape, h))
    a *= h
    audit = hs._audit_in_place(a, z_e, evs)
    assert np.array_equal(a, ref)
    assert audit == hs._audit_in_place(hp.copy(), z_e, evs)


def _without_reversal(monkeypatch):
    """Disable only the weyl check's time-reversal lookup: no group finds a
    partner to certify, so every k0, -k0 pair is audited on its own."""
    monkeypatch.setattr(op, "reversal_key", lambda sector: None)


def test_weyl_check_matches_the_out_of_place_audits(monkeypatch):
    # the check weighs, scales and shifts each block in its own buffer and
    # audits each k0, -k0 pair once; without the time-reversal certificates
    # its payload is that of weyl_audit on h P formed out of place for
    # every sector, bit for bit
    _without_reversal(monkeypatch)
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\n")
    ctx = hs.CampaignContext(cfg)
    h, z_e = cfg.h, complex(cfg.E, 1.0)
    audits = []
    for sector, evs in _weyl_sectors(cfg):
        block = op.build_generator(cfg.flow(), sector, cfg.truncation)
        audits.append(hs._audit_in_place(h * op.apply_weight(block, ctx.escape, h), z_e, evs))
    ok, payload = hs.CHECKS["weyl"](ctx)
    assert ok is all(a.verdict for a in audits) is True
    assert payload["sectors_audited"] == len(audits)
    assert payload["worst_margin"] == min(a.worst_margin for a in audits)


def test_weyl_check_memory_stays_in_one_block():
    # the check holds one sector block at a time; beyond it, the audit of
    # the largest sector (343 modes) holds the real weight ratios (n^2 x 8 B)
    # and the escape batch of its weights.  LAPACK's copies are not traced
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\n")
    n = max(len(op.sector_basis(s, cfg.truncation)) for s, _ in _weyl_sectors(cfg))
    assert n == 343
    ctx = hs.CampaignContext(cfg)
    ctx.escape                          # the checks' shared escape function, untraced
    tracemalloc.start()
    try:
        ok, _ = hs.CHECKS["weyl"](ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok is True
    assert peak <= 2.0 * n * n * 16


def test_weyl_check_warns_about_skipped_sectors(caplog):
    # at j_max = 50 every orbit sector of k_max = 3 has at least 5 x 101
    # modes: only the neutral sector is audited, and one warning says so
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\nj_max = 50\n")
    flow = cfg.flow()
    sectors = op.enumerate_orbits(flow.cat, 3, cfg.truncation.p_max)
    with caplog.at_level(logging.WARNING, logger="catspec"):
        _, payload = hs.CHECKS["weyl"](hs.CampaignContext(cfg))
    assert payload["sectors_audited"] == 1
    records = [r for r in caplog.records if r.name == "catspec"]
    assert len(records) == 1
    largest = 101 * max(s.n_cells for s in sectors)
    assert records[0].getMessage() == (
        f"weyl: {len(sectors)} sectors above 500 modes not audited (largest {largest})")


def test_weyl_check_sizes_sectors_before_building_them(monkeypatch):
    # at j_max = 50 only the 157-mode neutral sector is audited: the orbit
    # sectors are skipped on their basis length, so one block is built and
    # the check's peak stays below the 8.0 MB of one 707-mode block
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\nj_max = 50\n")
    built = []
    build_generator = op.build_generator

    def counted(flow, sector, truncation):
        block = build_generator(flow, sector, truncation)
        built.append(block.dim)
        return block

    monkeypatch.setattr(op, "build_generator", counted)
    ctx = hs.CampaignContext(cfg)
    tracemalloc.start()
    try:
        ok, payload = hs.CHECKS["weyl"](ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok is True and payload["sectors_audited"] == 1
    assert built == [157]
    assert peak < 707 * 707 * 16


def test_weyl_check_warns_about_nothing_at_the_default_j_max(caplog):
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\n")
    with caplog.at_level(logging.WARNING, logger="catspec"):
        hs.CHECKS["weyl"](hs.CampaignContext(cfg))
    assert not caplog.records


def test_ims_check_negative_control_broken_partition(monkeypatch):
    # chi1 scaled by 1.05 breaks chi0^2 + chi1^2 = 1: the residual no
    # longer falls like h^2 and the ratios drop to about 1
    cfg = parse_config("[campaign]\nchecks = ims\n")
    ok, payload = hs.CHECKS["ims"](hs.CampaignContext(cfg))
    assert ok and all(3.0 <= r <= 5.0 for r in payload["ratios"])
    partition = op.quadratic_partition

    def broken(radii, r0, r1):
        chi0, chi1 = partition(radii, r0, r1)
        return chi0, 1.05 * chi1

    monkeypatch.setattr(op, "quadratic_partition", broken)
    ok, payload = hs.CHECKS["ims"](hs.CampaignContext(cfg))
    assert ok is False
    assert all(0.9 <= r <= 1.1 for r in payload["ratios"])


#: the small truncation of the weyl check tests
K_MAX_3 = "[solver]\nk_max = 3\n"


def _weyl_counted(monkeypatch, config=K_MAX_3):
    """Run the weyl check on config and count the singular_values calls."""
    cfg = parse_config("[campaign]\nchecks = weyl\n" + config)
    flow = cfg.flow()
    calls = []
    svals = op.singular_values

    def counted(p):
        calls.append(np.shape(p)[0])
        return svals(p)

    monkeypatch.setattr(op, "singular_values", counted)
    ok, payload = hs.CHECKS["weyl"](hs.CampaignContext(cfg))
    n_orbit = len(op.enumerate_orbits(flow.cat, cfg.truncation.k_max, cfg.truncation.p_max))
    return ok, payload, len(calls), n_orbit


def test_weyl_check_shares_mirror_audits_exactly(monkeypatch):
    # each k0, -k0 pair is audited once: 1 neutral + half the orbit
    # sectors + 20 random matrices, and the payload is the one of a run
    # that audits every sector on its own (a key no two sectors share);
    # both runs leave the time-reversal certificates out
    _without_reversal(monkeypatch)
    ok, shared, n_shared, n_orbit = _weyl_counted(monkeypatch)
    assert n_orbit % 2 == 0 and n_shared == 1 + n_orbit // 2 + 20
    monkeypatch.setattr(op, "mirror_key", lambda sector: sector.freqs)
    ok_direct, direct, n_direct, _ = _weyl_counted(monkeypatch)
    assert n_direct == 1 + n_orbit + 20
    assert ok is ok_direct is True
    assert shared == direct
    assert shared["sectors_audited"] == 1 + n_orbit


def _reversal_pairs(cfg):
    """The first sectors of the mirror groups that the weyl check pairs by
    time reversal on cfg, as (representative, partner) in check order."""
    flow, tr = cfg.flow(), cfg.truncation
    firsts = [group[0] for group in op.mirror_groups(
        [op.NeutralSector()] + op.enumerate_orbits(flow.cat, tr.k_max, tr.p_max))]
    index = {op.mirror_key(sector): i for i, sector in enumerate(firsts)}
    return [(sector, firsts[index[op.reversal_key(sector)]]) for i, sector in enumerate(firsts)
            if index.get(op.reversal_key(sector), -1) > i]


def test_weyl_check_weighs_every_group_in_one_pass(monkeypatch):
    # on the default config the check's 31 groups are weighed by one
    # sector_log_weights call of 3 runs (WEIGHT_ROWS modes each at most),
    # not by one mode_log_weight call per sector
    calls, runs = [], []
    sector_log_weights, run_log_weights = op.sector_log_weights, op._run_log_weights

    def counted(escape, h, sectors, memo):
        sectors = list(sectors)
        calls.append(len(sectors))
        return sector_log_weights(escape, h, sectors, memo)

    def counted_run(escape, h, run, memo):
        runs.append(len(run))
        return run_log_weights(escape, h, run, memo)

    monkeypatch.setattr(op, "sector_log_weights", counted)
    monkeypatch.setattr(op, "_run_log_weights", counted_run)
    ok, _ = hs.CHECKS["weyl"](hs.CampaignContext(parse_config("[campaign]\nchecks = weyl\n")))
    assert ok is True
    assert calls == [31] and len(runs) == 3 and sum(runs) == 31


@pytest.mark.parametrize("config", [K_MAX_3, ""], ids=["k_max_3", "default"])
def test_weyl_check_certifies_time_reversal_pairs(monkeypatch, config):
    # on the symmetric cat matrix every mirror group pairs with its time
    # reversal and one group of each pair is audited: 1 neutral + a quarter
    # of the orbit sectors + 20 random matrices.  Each certified partner
    # passes its own out-of-place audit, its singular values are those of
    # its representative to 1e-10 relative, and its delta spreads by under
    # 1e-13 (7.5e-14 at most), so n spread(delta) stays well below
    # WEYL_REL_SLACK.  The worst margin is that of the audited matrices
    ok, payload, n_svd, n_orbit = _weyl_counted(monkeypatch, config)
    cfg = parse_config(config)
    flow, tr, ctx = cfg.flow(), cfg.truncation, hs.CampaignContext(cfg)
    h, z_e = cfg.h, complex(cfg.E, 1.0)
    pairs = _reversal_pairs(cfg)
    assert ok is True and payload["sectors_audited"] == 1 + n_orbit
    assert n_orbit % 4 == 0 and len(pairs) == n_orbit // 4
    assert n_svd == 1 + n_orbit // 4 + 20
    cell_vals = np.array([p.value for p in op.eigendecompose(op.orbit_cell_block(flow, tr))])
    neutral = h * op.apply_weight(op.build_generator(flow, op.NeutralSector(), tr),
                                  ctx.escape, h)
    margins = [hs.weyl_audit(neutral, z_e).worst_margin]
    for rep, partner in pairs:
        evs = np.concatenate([cell_vals] * rep.n_cells) * h
        rep_p, partner_p = (h * op.apply_weight(op.build_generator(flow, s, tr), ctx.escape, h)
                            for s in (rep, partner))
        margins.append(hs._audit_in_place(rep_p.copy(), z_e, evs).worst_margin)
        assert hs._audit_in_place(partner_p.copy(), z_e, evs).verdict
        eye = np.eye(len(rep_p))
        np.testing.assert_allclose(
            np.linalg.svd(partner_p - z_e * eye, compute_uv=False),
            np.linalg.svd(rep_p - z_e * eye, compute_uv=False), rtol=1e-10, atol=0.0)
        rep_w, partner_w = (op.mode_log_weight(s, op.sector_basis(s, tr), ctx.escape, h)
                            for s in (rep, partner))
        delta = partner_w + rep_w.reshape(rep.n_cells, -1)[::-1].ravel()
        assert np.ptp(delta) < 1e-13
        assert len(delta) * np.ptp(delta) < hs.WEYL_REL_SLACK / 2
    assert payload["worst_margin"] == min(margins)


@pytest.mark.parametrize("control", ["weight_not_odd", "non_symmetric", "perturbed"])
def test_weyl_check_audits_every_group_without_a_certificate(monkeypatch, control):
    # no partner is certified when the weight is not odd under the reversal
    # (u = -6, s = 12: n spread(delta) up to 6.7e3), when A is not symmetric
    # (no group's reversal is a group) or when each partner's log weight is
    # off by 1e-6 at one mode, in the check's one weight pass: the check
    # audits every mirror group, and its payload is that of a run without
    # the reversal lookup, bit for bit
    config = K_MAX_3 + {"weight_not_odd": "[escape]\nu = -6.0\ns = 12.0\n",
                        "non_symmetric": "[model]\na11 = 3\na12 = 2\na21 = 1\na22 = 1\n",
                        "perturbed": ""}[control]
    if control == "perturbed":
        partners = {op.mirror_key(p) for _, p in _reversal_pairs(parse_config(config))}
        assert partners
        sector_log_weights = op.sector_log_weights

        def perturbed(escape, h, sectors, memo):
            sectors = list(sectors)
            done = 0
            for run in sector_log_weights(escape, h, sectors, memo):
                for (sector, _), logw in zip(sectors[done:], run):
                    if op.mirror_key(sector) in partners:
                        logw[0] += 1e-6
                done += len(run)
                yield run

        monkeypatch.setattr(op, "sector_log_weights", perturbed)
    ok, payload, n_svd, n_orbit = _weyl_counted(monkeypatch, config)
    _without_reversal(monkeypatch)
    ok_audited, audited, n_audited, _ = _weyl_counted(monkeypatch, config)
    assert n_orbit % 2 == 0 and n_svd == n_audited == 1 + n_orbit // 2 + 20
    assert ok is ok_audited is True
    assert payload == audited
    assert payload["sectors_audited"] == 1 + n_orbit


def test_weyl_check_negated_weight_audits_the_failing_pairs(monkeypatch):
    # under G -> -G some representatives fail, so every partner goes down
    # the audit path, certified or not (the float64 SVDs of an
    # ill-conditioned pair differ far beyond the certificate's bound): the
    # payload, worst margin included, is that of a run without the
    # reversal lookup, bit for bit
    cfg = _seeded_defect(monkeypatch, "negated")
    built, verdicts = [], []
    build_generator, audit_in_place = op.build_generator, hs._audit_in_place

    def recorded_build(flow, sector, truncation):
        built.append(sector)
        return build_generator(flow, sector, truncation)

    def recorded_audit(a, z_e, eigenvalues):
        audit = audit_in_place(a, z_e, eigenvalues)
        verdicts.append(audit.verdict)
        return audit

    monkeypatch.setattr(op, "build_generator", recorded_build)
    monkeypatch.setattr(hs, "_audit_in_place", recorded_audit)
    ok, payload = hs.CHECKS["weyl"](hs.CampaignContext(cfg))
    verdict_of = dict(zip(built, verdicts))
    pairs = _reversal_pairs(cfg)
    assert any(not verdict_of[rep] for rep, _ in pairs)
    assert all(partner in verdict_of for _, partner in pairs)
    _without_reversal(monkeypatch)
    ok_audited, audited = hs.CHECKS["weyl"](hs.CampaignContext(cfg))
    assert ok is ok_audited is False
    assert payload == audited and payload["worst_margin"] < -1e-5


def test_weyl_check_negative_control_inflated_singular_values(monkeypatch):
    # singular values scaled by 1.5 break every audited prefix: the sector
    # audits fail, not only the random matrices
    svals = op.singular_values
    monkeypatch.setattr(op, "singular_values", lambda p: 1.5 * svals(p))
    cfg = parse_config("[campaign]\nchecks = weyl\n[solver]\nk_max = 3\n")
    ok, payload = hs.CHECKS["weyl"](hs.CampaignContext(cfg))
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
        smin = op.singular_values(m - z * np.eye(8))[0]
        dist = np.min(np.abs(vals - z))
        assert smin >= dist / kappa - 1e-12


# ---------------------------------------------------------------------------
# disk inclusion
# ---------------------------------------------------------------------------

def test_disk_box_check_cases():
    empty = hs.ResonanceSet([], {})
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

def _fixed_j_max(monkeypatch, j_max):
    monkeypatch.setattr(hs, "coherent_j_max", lambda flow, points, h: j_max)


def test_coherent_study_unresolved_at_small_j_max(flow, escape, monkeypatch):
    points = hs.default_symbol_points(flow)
    # point 8 keeps 97.9% of its mass at j_max = 2, below the 98% floor
    _fixed_j_max(monkeypatch, 2)
    with pytest.raises(UnresolvedState, match="point 8"):
        hs.coherent_symbol_study(escape, points, [0.14], _DEFAULT.truncation)
    _fixed_j_max(monkeypatch, 3)
    study = hs.coherent_symbol_study(escape, points, [0.14, 0.1], _DEFAULT.truncation)
    assert len(study.powers) == len(points)


def test_coherent_study_builds_one_phase_table_per_cutoff(flow, escape, monkeypatch):
    built = []
    phase_table = op.TauGrid.phase_table

    def counted(self, j_max):
        built.append(j_max)
        return phase_table(self, j_max)

    monkeypatch.setattr(op.TauGrid, "phase_table", counted)
    points = hs.default_symbol_points(flow)
    hs.coherent_symbol_study(escape, points, [0.14, 0.1], _DEFAULT.truncation)
    assert built == [12]                # the cutoff is 12 at both h
    built.clear()
    cuts = iter([3, 4])
    monkeypatch.setattr(hs, "coherent_j_max", lambda flow, points, h: next(cuts))
    hs.coherent_symbol_study(escape, points, [0.14, 0.1], _DEFAULT.truncation)
    assert built == [3, 4]


def test_coherent_j_max_grows_below_the_default_h(flow):
    points = hs.default_symbol_points(flow)
    # the floor holds at every h of the default and benchmark configs
    for h in (0.14, 0.1, 0.05, 0.025, 0.0125):
        assert hs.coherent_j_max(flow, points, h) == hs.COHERENT_J_FLOOR == 12
    # below it the mass budget sets the cutoff: 16 where four widths gave 22
    assert hs.coherent_j_max(flow, points, 0.005) == 16


def test_coherent_study_resolves_a_fine_h(flow, escape):
    # at j_max = 12 point 8 keeps only 97.3% of its mass at h = 0.005
    points = hs.default_symbol_points(flow)
    study = hs.coherent_symbol_study(escape, points, [0.005], _DEFAULT.truncation)
    assert all(np.isfinite(e[0.005]) for e in study.errors)


def test_coherent_study_from_one_h_is_undefined(flow, escape, recwarn, monkeypatch):
    points = hs.default_symbol_points(flow)
    _fixed_j_max(monkeypatch, 3)
    study = hs.coherent_symbol_study(escape, points, [0.14, 0.14], _DEFAULT.truncation)
    assert study.undefined and study.powers == [None] * len(points)
    assert all(len(e) == 1 for e in study.errors)
    assert not recwarn.list
    study = hs.coherent_symbol_study(escape, points, [0.14, 0.1], _DEFAULT.truncation)
    assert not study.undefined and None not in study.powers


def test_coherent_study_weight_overflow_on_orbit_sectors(flow, escape):
    h = 1e100
    points = hs.default_symbol_points(flow)[:1]
    # the neutral weight is the identity here, so only an orbit sector's
    # weight can overflow
    neutral = op.build_generator(flow, op.NeutralSector(),
                                 replace(_DEFAULT.truncation, k_max=3, j_max=12))
    assert np.all(op.mode_log_weight(neutral.sector, neutral.basis, escape, h) == 0.0)
    with pytest.raises(WeightOverflow):
        hs.coherent_symbol_study(escape, points, [h], _DEFAULT.truncation)


def test_coherent_study_overflow_names_an_orbit_sector(flow, escape):
    # at h = 1e300 the neutral weight overflows too; the batched pass
    # weighs the orbit sectors first and names the first that overflows
    points = hs.default_symbol_points(flow)[:1]
    with pytest.raises(WeightOverflow, match=r"at h = 1e\+300 overflows on sector "
                       r"orbit-?\d+,-?\d+ \(\d+ modes, \|j\| <= 12\)") as info:
        hs.coherent_symbol_study(escape, points, [1e300], _DEFAULT.truncation)
    assert "neutral" not in str(info.value)


@pytest.mark.parametrize("params, weight_rows", [
    (_DEFAULT.escape, op.WEIGHT_ROWS), (ALT_ORDER, op.WEIGHT_ROWS), (_DEFAULT.escape, 1),
], ids=["escape", "escape_alt", "one_sector_per_run"])
def test_coherent_study_matches_the_per_sector_loop(flow, params, weight_rows, monkeypatch):
    # to 1e-14 relative: the study reads each sector's expectation from the
    # packets' rank-one factors, the loop from their coefficient arrays, so
    # the sums run in another order (errors[1] at h = 0.1 moves in the last
    # bit); perfbench holds the coherent payload to 1e-12.  With one sector
    # per run, the neutral sector's run holds no orbit sector
    monkeypatch.setattr(op, "WEIGHT_ROWS", weight_rows)
    points = hs.default_symbol_points(flow)
    h_list = [0.14, 0.1]
    study = hs.coherent_symbol_study(EscapeFunction(flow, params), points, h_list,
                                     _DEFAULT.truncation)
    errors, powers = coherent_study_per_sector(flow, params, points, h_list, _DEFAULT.truncation)

    def gap(errors, powers):
        values = [(a[h], b[h]) for a, b in zip(study.errors, errors) for h in h_list]
        return max(abs(a - b) / abs(b) for a, b in values + list(zip(study.powers, powers)))

    assert gap(errors, powers) <= 1e-14
    # negative control: the loop with the cell-to-cell hop dropped, each
    # cell summed as a sector of its own, is farther than the bound
    expectation = oracles.coefficient_orbit_expectation

    def no_hop(flow, truncation, log_weight, coeffs):
        return sum(expectation(flow, truncation, log_weight[ell:ell + 1],
                               coeffs[..., ell:ell + 1, :])
                   for ell in range(len(log_weight)))

    monkeypatch.setattr(oracles, "coefficient_orbit_expectation", no_hop)
    assert gap(*coherent_study_per_sector(flow, params, points, h_list,
                                          _DEFAULT.truncation)) > 1e-14


def test_coherent_study_weighs_each_h_in_runs(flow, escape, monkeypatch):
    calls, runs, rows, memos = [], [], [], []
    escape_value, profiles = EscapeFunction.escape_value, EscapeFunction._profiles
    run_log_weights, sector_log_weights = op._run_log_weights, op.sector_log_weights

    def counted(self, adapted, orders):
        calls.append(np.size(adapted) // 3)
        return escape_value(self, adapted, orders)

    def profile_rows(self, adapted, rates):
        if runs:                        # a weight run's pass, not an X(G)'s
            rows.append(len(adapted))
        return profiles(self, adapted, rates)

    def run_modes(escape, h, run, memo):
        runs.append((h, sum(len(basis) for _, basis in run)))
        return run_log_weights(escape, h, run, memo)

    def with_memo(escape, h, sectors, memo):
        memos.append(memo)
        return sector_log_weights(escape, h, sectors, memo)

    monkeypatch.setattr(EscapeFunction, "escape_value", counted)
    monkeypatch.setattr(EscapeFunction, "_profiles", profile_rows)
    monkeypatch.setattr(op, "_run_log_weights", run_modes)
    monkeypatch.setattr(op, "sector_log_weights", with_memo)
    points = hs.default_symbol_points(flow)
    hs.coherent_symbol_study(escape, points, [0.14, 0.1], _DEFAULT.truncation)
    # four single points behind each X(G), one X(G) per +-xi pair of points
    assert calls == [1] * 24
    # one memo across h: each (cell, |j|) is evaluated once, and the orbit
    # modes of h = 0.14 (3,068 rows on their own) are among the 4,004 of 0.1
    assert len(memos) == 2 and memos[0] is memos[1]
    known = {(k, j) for k, entry in memos[0].items() for j in np.flatnonzero(~np.isnan(entry[0]))}
    assert sum(rows) == len(known)
    assert sum(k != (0, 0) for k, _ in known) == 4004
    for h in (0.14, 0.1):
        modes = [n for at, n in runs if at == h]
        # each (cell, j) weighed once per h: one sector per k0, -k0 pair,
        # and the neutral sector
        k_max = hs.coherent_k_max(points, h)
        cells = {op.mirror_key(s): s.n_cells
                 for s in op.enumerate_orbits(flow.cat, k_max, 2)}
        neutral = op.build_generator(flow, op.NeutralSector(),
                                     replace(_DEFAULT.truncation, k_max=k_max, j_max=12))
        assert sum(modes) == 25 * sum(cells.values()) + neutral.dim
        # a run of at most WEIGHT_ROWS modes closes only when the next
        # sector does not fit
        assert max(modes) <= op.WEIGHT_ROWS
        assert all(a + b > op.WEIGHT_ROWS for a, b in zip(modes, modes[1:]))


def _bits(x):
    return np.float64(x).tobytes()


def test_coherent_study_flows_each_base_point_once_per_time(flow, escape, monkeypatch):
    points = hs.default_symbol_points(flow)
    qs = [CotangentPoint(BasePoint(ax[:2], ax[2]), xi[:2], xi[2]) for ax, xi in points]
    pairs = [(i, j) for i in range(len(points)) for j in range(i) if points[i][0] == points[j][0]
             and np.array_equal(points[i][1], np.negative(points[j][1]))]
    assert len(pairs) == 4
    for i, j in pairs:
        # bit for bit, signed zeros included: h0 is +-0.0 on these points
        assert _bits(escape.escape_derivatives([qs[i]])[0]) == _bits(
            escape.escape_derivatives([qs[j]])[0])
        assert _bits(h0(flow, qs[i])) == _bits(-h0(flow, qs[j])) != _bits(h0(flow, qs[j]))
    taken, flows = [], []
    derivatives, flow_time = EscapeFunction.escape_derivatives, MappingTorusFlow.flow_time

    def recorded(self, qs):
        qs = list(qs)
        taken.extend(zip(qs, derivatives(self, qs)))
        return [xg for _, xg in taken[-len(qs):]]

    def counted(self, p, t):
        flows.append((p, t))
        return flow_time(self, p, t)

    monkeypatch.setattr(EscapeFunction, "escape_derivatives", recorded)
    monkeypatch.setattr(MappingTorusFlow, "flow_time", counted)
    _fixed_j_max(monkeypatch, 3)
    hs.coherent_symbol_study(escape, points, [0.14], _DEFAULT.truncation)
    # all points share x0, so the base flow runs once per Richardson time
    assert len(flows) == 4
    # one X(G) per +-xi pair (points 8 and 9 have no partner), each bit for
    # bit the Richardson difference of one-point escapes along the point's
    # own lifted flow
    partner = dict(pairs) | {j: i for i, j in pairs}
    got = [q for q, _ in taken]
    assert len(got) == 6 and all(q in got or qs[partner[i]] in got for i, q in enumerate(qs))
    for q, xg in list(taken):
        own = float(_richardson(lambda t: escape.escape_value(
            adapted_components(flow, lifted_flow(flow, q.base, t)(q)), [escape.params])[0]))
        assert _bits(xg) == _bits(own) == _bits(escape.escape_derivatives([q])[0])
    # negative control: point 2, the pair of point 0, moved off tau0
    flows.clear()
    i, j = pairs[0]
    moved = points[:i] + [((0.5, 0.5, 0.6), points[i][1])] + points[i + 1:]
    hs.coherent_symbol_study(escape, moved, [0.14], _DEFAULT.truncation)
    assert (i, j) == (2, 0) and len(flows) == 8


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_campaign_determinism():
    text = DEFAULT_CONFIG.replace(
        "checks = escape,upper_half,symmetry,intrinsic,weyl,ims,garding,coherent,counting,disk",
        "checks = upper_half,symmetry,disk").replace("k_max = 6", "k_max = 3")
    cfg = parse_config(text)
    r1 = hs.run_campaign(cfg)
    r2 = hs.run_campaign(cfg)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["verdicts"] == {"upper_half": True, "symmetry": True, "disk": True}


def test_campaign_builds_one_escape_function_per_order_set(monkeypatch):
    # one per distinct order set, shared by every check and every spectrum:
    # escape and escape_alt are equal on the default config (both n0 = 0)
    built = []
    init = EscapeFunction.__init__

    def counted(self, flow, params):
        built.append(params)
        init(self, flow, params)

    monkeypatch.setattr(EscapeFunction, "__init__", counted)
    text = ("[solver]\nk_max = 3\n[campaign]\n"
            "checks = intrinsic,counting,coherent\ncoherent_h = 0.1,0.05\n")
    cfg = parse_config(text)
    report = hs.run_campaign(cfg)
    assert report["passed"] is True
    assert report["checks"]["intrinsic"]["cross_distance"] == 0.0
    assert cfg.escape == cfg.escape_alt and built == [cfg.escape]
    built.clear()
    cfg = parse_config(text + "[escape_alt]\nn0 = 0.5\n")
    assert hs.run_campaign(cfg)["passed"] is True
    assert built == [cfg.escape, cfg.escape_alt]


def _counted_solves(monkeypatch):
    """Record every eigendecompose matrix and every enumerate_orbits
    (k_max, p_max); an eigendecompose call inside _audit_in_place fails."""
    solved, walks, auditing = [], [], []
    eigendecompose, enumerate_orbits = op.eigendecompose, op.enumerate_orbits
    audit_in_place = hs._audit_in_place

    def counted_solve(p):
        assert not auditing, "an audit asked for eigenvectors"
        solved.append(np.array(p, dtype=complex))
        return eigendecompose(p)

    def counted_walk(cat, k_max, p_max):
        walks.append((k_max, p_max))
        return enumerate_orbits(cat, k_max, p_max)

    def marked_audit(a, z_e, eigenvalues):
        auditing.append(True)
        try:
            return audit_in_place(a, z_e, eigenvalues)
        finally:
            auditing.pop()

    monkeypatch.setattr(op, "eigendecompose", counted_solve)
    monkeypatch.setattr(op, "enumerate_orbits", counted_walk)
    monkeypatch.setattr(hs, "_audit_in_place", marked_audit)
    return solved, walks


def _recorded_spectra(monkeypatch):
    """Record (escape, truncation, h, spectrum) of every extract_resonances
    call; returns the list and the unpatched function."""
    calls, extract = [], hs.extract_resonances

    def recorded(solves, escape, truncation, h, residual_tol, cluster_radius):
        res = extract(solves, escape, truncation, h, residual_tol, cluster_radius)
        calls.append((escape, truncation, h, res))
        return res

    monkeypatch.setattr(hs, "extract_resonances", recorded)
    return calls, extract


def test_campaign_solves_each_dense_eigenproblem_once(monkeypatch):
    # one eigendecompose per distinct cell j_max and per distinct (neutral
    # size, log weight), one orbit walk per (k_max, p_max), and no
    # eigenvectors in the Weyl audits; at n0 = 0 the neutral weight is 0 at
    # every h, so the base and the counting alphas of one j_max share a solve
    solved, walks = _counted_solves(monkeypatch)
    calls, _ = _recorded_spectra(monkeypatch)
    cfg = parse_config("[solver]\nk_max = 3\n[campaign]\n"
                       "checks = upper_half,symmetry,weyl,counting,intrinsic\n")
    report = hs.run_campaign(cfg)
    assert report["passed"] is True
    neutral = op.NeutralSector()
    cells = {(tr.j_max, tr.flux_penalty) for _, tr, _, _ in calls}
    weights = set()
    for escape, tr, h, _ in calls:
        basis = op.sector_basis(neutral, tr)
        weights.add((len(basis), op.mode_log_weight(neutral, basis, escape, h).tobytes()))
    assert len(calls) == 8 and len(cells) == len(weights) == 2
    assert len(solved) == len(cells) + len(weights) == 4
    assert len({(m.shape, m.tobytes()) for m in solved}) == len(solved)
    assert sorted(walks) == [(3, 2), (7, 4)]


def test_solve_store_keys_hold_when_the_neutral_weight_moves_with_h(monkeypatch):
    # negative control for the store's keys: at n0 = 1 (and 0.5 for
    # escape_alt) the neutral weight is nonzero and depends on h.  Every
    # spectrum the campaign extracts equals one from a store of its own, bit
    # for bit, and so do the base spectrum, the counting table and the
    # intrinsic payload; the neutral solves are the distinct (order set,
    # neutral size, h), fewer than the spectra
    calls, extract = _recorded_spectra(monkeypatch)
    cfg = parse_config("[escape]\nn0 = 1\n[escape_alt]\nn0 = 0.5\n[solver]\nk_max = 3\n"
                       "[campaign]\nchecks = upper_half,intrinsic,counting\n")
    ctx = hs.CampaignContext(cfg)
    payloads = {name: hs.CHECKS[name](ctx)[1] for name in cfg.checks}
    fresh = [extract(hs.SolveStore(cfg.flow()), escape, tr, h, *TOLS)
             for escape, tr, h, _ in calls]
    assert [res for *_, res in calls] == fresh
    base, cross, drift, *counted = fresh
    assert ctx.base == base and len(counted) == len(cfg.alpha_grid)
    assert payloads["counting"]["table"] == [
        (alpha, hs.count_in_box(res, hs.CountingBox(cfg.E, alpha, cfg.beta)))
        for alpha, res in zip(cfg.alpha_grid, counted)]
    cross, drift = (hs.intrinsic_check(base, res, cfg.floor) for res in (cross, drift))
    assert (payloads["intrinsic"]["cross_distance"], payloads["intrinsic"]["drift"]) == (
        cross.max_distance, drift.max_distance)
    assert payloads["intrinsic"]["cross_distance"] > 0.0
    distinct = {(escape.params, len(op.sector_basis(op.NeutralSector(), tr)), h)
                for escape, tr, h, _ in calls}
    neutral = [key for key in ctx.solved if key[0] == "neutral"]
    assert len(neutral) == len(distinct) < len(calls)


def test_solve_store_remembers_a_failed_solve(monkeypatch, flow_const):
    # flux_penalty = 1e308: the cell solve raises NonConvergence once, and
    # every later read re-raises that exception without solving again
    cfg = parse_config("[solver]\nk_max = 3\nflux_penalty = 1e308\n")
    solved, _ = _counted_solves(monkeypatch)
    solves = hs.SolveStore(cfg.flow())
    errors = []
    for _ in range(2):
        with pytest.raises(NonConvergence) as info:
            solves.cell_pairs(cfg.truncation)
        errors.append(info.value)
    assert len(solved) == 1 and errors[0] is errors[1]
    with pytest.raises(ValueError, match="another flow"):
        solves.neutral_pairs(EscapeFunction(flow_const, cfg.escape), cfg.truncation, cfg.h)


def test_checks_that_compare_nothing_fail():
    # an empty spectrum passes none of the comparisons; the payloads keep
    # the helpers' values
    cfg = parse_config("[solver]\nk_max = 3\n")
    ctx = hs.CampaignContext(cfg)
    ctx.solved["base"] = hs.ResonanceSet([], {"cluster_radius": cfg.cluster_radius})
    ok, payload = hs.CHECKS["upper_half"](ctx)
    assert ok is False and payload["max_im"] == float("-inf")
    ok, payload = hs.CHECKS["symmetry"](ctx)
    assert ok is False and payload == {"max_distance": 0.0, "pairs": 0}
    ok, payload = hs.CHECKS["disk"](ctx)
    assert ok is False and payload["ok"] is True and payload["n_in_box"] == 0


def test_campaign_guard_turns_a_raising_check_into_a_failure(monkeypatch):
    def broken(ctx):
        raise RuntimeError("seeded defect")

    monkeypatch.setitem(hs.CHECKS, "disk", broken)
    cfg = parse_config("[campaign]\nchecks = upper_half,disk\n[solver]\nk_max = 3\n")
    report = hs.run_campaign(cfg)
    assert report["verdicts"] == {"upper_half": True, "disk": False}
    assert report["checks"]["disk"] == {"error": "RuntimeError: seeded defect"}
    assert report["passed"] is False


def test_campaign_extracts_a_failed_base_spectrum_once(monkeypatch, caplog):
    # flux_penalty = 1e308: the base spectrum raises NonConvergence.  It is
    # extracted once, every check that reads it fails with the same error
    # payload, and the frames are logged with the first check only
    calls = []
    extract = hs.extract_resonances
    monkeypatch.setattr(hs, "extract_resonances",
                        lambda *args: calls.append(args) or extract(*args))
    cfg = parse_config("[solver]\nk_max = 3\nflux_penalty = 1e308\n"
                       "[campaign]\nchecks = upper_half,symmetry,intrinsic,disk\n")
    with caplog.at_level(logging.ERROR, logger="catspec"):
        report = hs.run_campaign(cfg)
    assert len(calls) == 1 and not any(report["verdicts"].values())
    errors = {payload["error"] for payload in report["checks"].values()}
    assert len(errors) == 1 and errors.pop().startswith("NonConvergence:")
    assert [bool(r.exc_info) for r in caplog.records] == [True, False, False, False]


def test_garding_fails_when_its_blocks_leave_the_double_range(recwarn):
    # flux_penalty = 1e308: the weighted Garding blocks overflow.  The check
    # fails with an error payload, not with a passing sweep of -inf, and
    # no RuntimeWarning is raised on the way
    cfg = parse_config("[solver]\nk_max = 3\nflux_penalty = 1e308\n"
                       "[campaign]\nchecks = garding\n")
    report = hs.run_campaign(cfg)
    assert not recwarn.list
    assert report["verdicts"] == {"garding": False}
    assert report["checks"]["garding"]["error"].startswith("WeightOverflow:")


#: the small campaign of the defect rows not run on the default config
DEFECT_CONFIG = "[solver]\nk_max = 3\n[campaign]\ncoherent_h = 0.1,0.05\n"


def _seeded_defect(monkeypatch, defect):
    """The config of one defect-matrix row, with its defect patched in."""
    if defect in ("zero", "negated"):
        # G scaled where every G is formed from the profiles, for
        # escape_value and the weights' memo path alike; X(G) keeps the
        # unscaled G's
        scale = 0.0 if defect == "zero" else -1.0
        order_and_escape = EscapeFunction._order_and_escape

        def scaled(self, *args):
            m, g, *xg = order_and_escape(self, *args)
            return (m, scale * g, *xg)

        monkeypatch.setattr(EscapeFunction, "_order_and_escape", scaled)
        return parse_config(DEFAULT_CONFIG)
    cfg = parse_config(DEFECT_CONFIG)
    if defect == "period":
        # every reader of flow.period; theta and the time change's own
        # rectified map keep the true T
        cfg.flow().period *= 1.01
    elif defect == "cell_shift":
        cell_block = op.orbit_cell_block

        def shifted(flow, truncation):
            block = cell_block(flow, truncation)
            block[truncation.j_max, truncation.j_max] += 0.5 / cfg.h     # the j = 0 entry
            return block

        monkeypatch.setattr(op, "orbit_cell_block", shifted)
    else:
        # W H W instead of W H W^-1 wherever a matrix is weighted; the
        # coherent study's orbit sectors go through the matrix-free
        # orbit_expectation, which this patch does not reach
        def non_similar(matrix, log_weight):
            logw = np.asarray(log_weight, dtype=float)
            matrix *= np.exp(np.add.outer(logw, logw))
            return matrix

        monkeypatch.setattr(op, "conjugate_by_diagonal", non_similar)
    return cfg


@pytest.mark.parametrize("defect, failing", [
    pytest.param("zero", {"escape"}, id="zero"),
    pytest.param("negated", {"escape", "garding", "weyl"}, id="negated"),
    pytest.param("period", set(), id="period"),
    pytest.param("cell_shift", {"symmetry", "intrinsic"}, id="cell_shift"),
    pytest.param("non_similar", {"weyl"}, id="non_similar"),
])
def test_campaign_defect_matrix(monkeypatch, defect, failing):
    # a campaign with a seeded defect: G = 0 and G -> -G on the default
    # config; T x 1.01, one cell-block diagonal entry + 0.5/h and a weight
    # that is not a similarity on DEFECT_CONFIG.  The failing verdicts are
    # asserted exactly, so a check that starts or stops catching a defect
    # shows here; the README's "defect x check" table lists the checks that
    # still pass and the ROADMAP item meant to make each fail
    report = hs.run_campaign(_seeded_defect(monkeypatch, defect))
    checks = report["checks"]
    assert {name for name, ok in report["verdicts"].items() if not ok} == failing
    # every check ends on its own verdict, not through the campaign's guard
    assert not [name for name, payload in checks.items() if "error" in payload]
    if defect in ("zero", "negated"):
        # X(G) is exact for the implemented G, so the defect reaches the
        # verdict through the audit: escape_value's Richardson difference
        # misses X(G) on every audited sample
        assert checks["escape"]["violations"] == AUDIT_SAMPLES
    if defect == "cell_shift":
        # the shifted cell eigenvalue carries a different multiplicity once
        # the truncation grows: its drift pairs are unmatched at distance 0
        intrinsic = checks["intrinsic"]
        assert intrinsic["drift"] == 0.0 and intrinsic["cross_unmatched"] == 0
        assert intrinsic["drift_pairs"] < intrinsic["cross_pairs"]
    elif defect in ("negated", "non_similar"):
        # the sector audits fail (worst margin about -1.5e-4 under -G, -1.4e3
        # under W H W) while the random matrices still pass.  Under -G at
        # k_max = 3 they pass (-4.8e-10)
        assert checks["weyl"]["random_oracle_ok"] is True
        assert checks["weyl"]["worst_margin"] < -1e-5


def test_zero_g_seed_reaches_the_memoized_weights(flow, monkeypatch):
    # the G = 0 row's patch reaches the coherent study's weights, which
    # read their profiles from the memo and never call escape_value
    weights = []
    expectation = op.orbit_expectation

    def recorded(flow, truncation, log_weight, *factors):
        weights.append(log_weight)
        return expectation(flow, truncation, log_weight, *factors)

    monkeypatch.setattr(op, "orbit_expectation", recorded)
    points, h_list = hs.default_symbol_points(flow), [0.14, 0.1]
    hs.coherent_symbol_study(EscapeFunction(flow, _DEFAULT.escape), points, h_list,
                             _DEFAULT.truncation)
    assert any(np.any(w != 0.0) for w in weights)
    weights.clear()
    cfg = _seeded_defect(monkeypatch, "zero")
    hs.coherent_symbol_study(EscapeFunction(flow, cfg.escape), points, h_list, cfg.truncation)
    assert weights and all(np.all(w == 0.0) for w in weights)
