from dataclasses import replace

import numpy as np
import pytest

from catspec import cotangent
from catspec import harness as hs
from catspec import operator as op
from catspec.config import DEFAULT_CONFIG, parse_config
from catspec.errors import (NonConvergence, TruncationTooSmall, UnresolvedState,
                            WeightOverflow)
from catspec.escape import EscapeFunction, OrderParams
from catspec.model import CatMap, default_flow
from oracles import (ContourTooClose, coherent_state, dense_orbit_expectation,
                     enumerate_orbits_per_point, log_weights_every_mode, orbit_representative,
                     singular_values_gram, spectral_projector_rank)


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------

def test_orbit_of_unit_frequency(flow):
    sector = next(s for s in op.enumerate_orbits(flow.cat, 6, 2)
                  if s.k0 == (1, 0))
    freqs = sector.freqs
    assert (2, 1) in freqs and (5, 3) in freqs
    # (1,-1) maps to (1,0) under the transpose, hence shares its sector
    assert orbit_representative(flow.cat, (1, -1)) == (1, 0)
    assert (1, -1) in freqs


def test_orbit_ball_partition(flow):
    k_max = 5
    sectors = op.enumerate_orbits(flow.cat, k_max, 2)
    seen = {}
    for s in sectors:
        for f in s.freqs:
            assert f not in seen, f"frequency {f} in two sectors"
            seen[f] = s.key
    for k1 in range(-k_max, k_max + 1):
        for k2 in range(-k_max, k_max + 1):
            if (k1, k2) != (0, 0) and k1 * k1 + k2 * k2 <= k_max * k_max:
                assert (k1, k2) in seen
    assert (0, 0) not in seen


def test_representative_is_minimal_norm(flow):
    rng = np.random.default_rng(0)
    at = flow.cat.matrix.T
    for _ in range(20):
        k = tuple(rng.integers(-20, 21, size=2))
        if k == (0, 0):
            continue
        rep = np.asarray(orbit_representative(flow.cat, k))
        v = rep.copy()
        for _ in range(6):
            v = at @ v
            assert v @ v >= rep @ rep
        v = rep.copy()
        ati = flow.cat.power(-1).T
        for _ in range(6):
            v = ati @ v
            assert v @ v >= rep @ rep


@pytest.mark.parametrize("cat", [CatMap(), CatMap(3, 2, 1, 1)], ids=["default", "3211"])
def test_orbit_walk_equals_the_per_point_enumeration(cat, flow):
    # one pass over the ball with in-ball orbit walks finds the sectors,
    # representatives, kept positions and cell frequencies (A^T)^p k0 of
    # the per-point oracle, which takes them from int64 matrix powers.  The
    # cutoffs cover the default truncation and the coherent study's largest
    # cutoff (h = 0.0125)
    cfg = parse_config(DEFAULT_CONFIG)
    k_top = hs.coherent_k_max(hs.default_symbol_points(flow), min(cfg.coherent_h_list))
    assert (cfg.truncation.k_max, k_top) == (6, 35)
    for k_max in (0.5, *range(1, 41), 7.3):
        sectors = op.enumerate_orbits(cat, k_max, 2)
        assert sectors == enumerate_orbits_per_point(cat, k_max, 2), k_max
        assert all(type(k) is int for s in sectors for k in s.k0)
        assert all(type(k) is int for s in sectors for f in s.freqs for k in f)


# ---------------------------------------------------------------------------
# generator blocks
# ---------------------------------------------------------------------------

def test_neutral_block_constant_time_change(flow_const):
    tr = op.Truncation(j_max=2, j_buffer=1)
    blk = op.build_generator(flow_const, op.NeutralSector(), tr)
    js = blk.basis[:, 1]
    assert np.allclose(blk.matrix, np.diag(2 * np.pi * js))
    inner = blk.matrix[1:-1, 1:-1]      # the unbuffered part
    assert np.allclose(np.sort(np.diag(inner).real),
                       [-4 * np.pi, -2 * np.pi, 0.0, 2 * np.pi, 4 * np.pi])
    # self-adjoint when the flow preserves the volume
    assert np.linalg.norm(blk.matrix - blk.matrix.conj().T) < 1e-12


def test_neutral_block_is_banded_by_cosine(flow):
    tr = op.Truncation(j_max=4, j_buffer=1)
    blk = op.build_generator(flow, op.NeutralSector(), tr)
    h = blk.matrix
    js = blk.basis[:, 1]
    for a, ja in enumerate(js):
        for b, jb in enumerate(js):
            if abs(ja - jb) > 1:
                assert h[a, b] == 0
            elif abs(ja - jb) == 1:
                assert h[a, b] == pytest.approx(2 * np.pi * jb * 0.1, abs=1e-14)
            else:
                assert h[a, b] == pytest.approx(2 * np.pi * jb, abs=1e-14)


def test_truncation_too_small():
    with pytest.raises(TruncationTooSmall):
        op.Truncation(p_max=1)
    for bad in ({"k_max": 0}, {"j_max": -1}, {"flux_penalty": 0.0}):
        with pytest.raises(ValueError):
            op.Truncation(**bad)


def test_orbit_block_structure(flow):
    tr = op.Truncation(k_max=3, p_max=2, j_max=3)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    blk = op.build_generator(flow, sector, tr)
    nj = 2 * tr.j_max + 1
    assert blk.dim == sector.n_cells * nj
    cell = op.orbit_cell_block(flow, tr)
    for ell in range(sector.n_cells):
        sl = slice(ell * nj, (ell + 1) * nj)
        assert np.allclose(blk.matrix[sl, sl], cell)
    # strictly lower block-bidiagonal coupling
    assert np.allclose(blk.matrix[0:nj, nj:], 0.0)
    # exact dissipativity of the truncated transport
    assert op.numerical_range_top(blk.matrix) <= 1e-10


def test_orbit_block_spectrum_is_cell_spectrum(flow):
    tr = op.Truncation(k_max=3, p_max=2, j_max=3)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    blk = op.build_generator(flow, sector, tr)
    cell_vals = np.linalg.eigvals(op.orbit_cell_block(flow, tr))
    full_vals = np.linalg.eigvals(blk.matrix)
    d = np.min(np.abs(full_vals[:, None] - cell_vals[None, :]), axis=1)
    # dense solves scatter the degenerate towers but stay near the block roots
    assert np.max(d) < 0.05


def test_orbit_line_eigenvalues_in_lower_half_plane(flow):
    """Truncated transport on the orbit line with geometric weight decay:
    eigenvalues sit in the lower half plane, against a high-precision dense
    solve of the same matrix.

    The cell degeneracy makes the towers Jordan-like, so both solvers
    scatter them at the (eps^(1/cells)) level; the comparison tolerance
    reflects that, while the sign statement itself is exact.
    """
    import mpmath as mp

    tr = op.Truncation(k_max=3, p_max=2, j_max=1)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    blk = op.build_generator(flow, sector, tr)
    escape = EscapeFunction(flow, OrderParams(u=-2.0, s=2.0))
    p = op.apply_weight(blk, escape, h=0.05)
    assert p.shape[0] <= 24
    vals = np.linalg.eigvals(p)
    assert np.max(vals.imag) < -1e-3
    with mp.workdps(40):
        m = mp.matrix([[mp.mpc(v) for v in row] for row in p])
        oracle = mp.eig(m, left=False, right=False)
    oracle = np.array([complex(v) for v in oracle])
    assert oracle.imag.max() < -1e-3
    for v in vals:
        assert np.min(np.abs(oracle - v)) < 5e-3
    # the exact spectrum is the cell-block spectrum with multiplicity
    cell_vals = np.linalg.eigvals(op.orbit_cell_block(flow, tr))
    for v in oracle:
        assert np.min(np.abs(cell_vals - v)) < 5e-3


# ---------------------------------------------------------------------------
# mode basis
# ---------------------------------------------------------------------------

def _mode_adapted_per_mode(flow, block, h):
    """Reference: one matrix power and one scalar coframe solve per mode."""
    sector = block.sector
    c0 = float(flow.time_change(0.0))
    out = np.empty((block.dim, 3))
    for i, (p, j) in enumerate(block.basis):
        if isinstance(sector, op.NeutralSector):
            k = np.zeros(2)
        else:
            k = (flow.cat.power(p).T @ np.asarray(sector.k0)).astype(float)
        xi = 2.0 * np.pi * h * np.array([k[0], k[1], float(j)])
        a, b = cotangent.horizontal_components(flow, xi[:2])
        out[i] = (a, b, c0 * xi[2])
    return out


def test_mode_basis_layout_and_covectors_match_per_mode_loop(flow):
    tr = op.Truncation(k_max=4, p_max=2, j_max=5, j_buffer=3)
    orbits = {s.k0: s for s in op.enumerate_orbits(flow.cat, 4, 2)}
    # a five-cell sector at the ball's edge and the eight-cell unit orbit
    sectors = [op.NeutralSector(), orbits[(-3, 1)], orbits[(1, 0)]]
    assert [s.n_cells for s in sectors[1:]] == [5, 8]
    js = np.arange(-tr.j_max, tr.j_max + 1)
    for sector in sectors:
        blk = op.build_generator(flow, sector, tr)
        assert blk.basis.shape == (blk.dim, 2)
        assert blk.basis.dtype == np.int64
        if isinstance(sector, op.NeutralSector):
            jn = tr.j_max + tr.neutral_buffer()
            assert np.array_equal(blk.basis[:, 0], np.zeros(blk.dim))
            assert np.array_equal(blk.basis[:, 1], np.arange(-jn, jn + 1))
        else:
            nj = js.size
            assert np.all(blk.basis[:nj, 0] == sector.p_hi)
            assert np.array_equal(blk.basis[:, 0],
                                  np.repeat(np.arange(sector.p_hi, sector.p_lo - 1, -1), nj))
            assert np.array_equal(blk.basis[:, 1], np.tile(js, sector.n_cells))
        for h in (0.05, 0.14):
            assert np.array_equal(op._mode_adapted(flow, h, [(sector, blk.basis)]),
                                  _mode_adapted_per_mode(flow, blk, h))


def test_horizontal_components_batch_equals_scalar_calls(flow):
    rng = np.random.default_rng(7)
    xi = rng.normal(size=(3, 4, 2)) * 50.0
    batch = cotangent.horizontal_components(flow, xi)
    assert batch.shape == (3, 4, 2)
    stacked = np.array([[cotangent.horizontal_components(flow, v) for v in row]
                        for row in xi])
    assert np.array_equal(batch, stacked)
    single = cotangent.horizontal_components(flow, xi[0, 0])
    assert isinstance(single, tuple) and all(type(v) is float for v in single)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_conjugate_by_diagonal_shift():
    # the matrix is scaled in place, so each call gets a copy
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    logw = np.log([2.0, 4.0])
    buf = shift.copy()
    out = op.conjugate_by_diagonal(buf, logw)
    assert out is buf
    assert out[0, 1] == pytest.approx(0.5)      # w1 / w2
    diag = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(op.conjugate_by_diagonal(diag.copy(), [5.0, -1.0, 0.3]), diag)


def test_similarity_exact_on_nondegenerate_block(flow):
    # the conjugation is an exact similarity: on a simple-spectrum matrix
    # the eigenvalues agree at solver precision
    tr = op.Truncation(j_max=10)
    cell = op.orbit_cell_block(flow, tr)
    rng = np.random.default_rng(4)
    logw = rng.uniform(-3.0, 3.0, size=cell.shape[0])
    conj = op.conjugate_by_diagonal(cell.copy(), logw)
    a = np.sort_complex(np.linalg.eigvals(cell))
    b = np.sort_complex(np.linalg.eigvals(conj))
    assert np.max(np.abs(a - b)) < 1e-10


def test_apply_weight_diagonal_preserved(flow, escape):
    tr = op.Truncation(k_max=3, p_max=2, j_max=4)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    blk = op.build_generator(flow, sector, tr)
    p = op.apply_weight(blk, escape, h=0.05)
    assert np.allclose(np.diag(p), np.diag(blk.matrix))
    # the block keeps its matrix: the weight scales a copy
    assert np.array_equal(blk.matrix, op.build_generator(flow, sector, tr).matrix)
    logw = op.mode_log_weight(sector, blk.basis, escape, 0.05)
    assert np.exp(logw.max() - logw.min()) >= 1.0
    # exact similarity: spectra agree on the same index set
    a = np.sort_complex(np.round(np.linalg.eigvals(p), 6))
    b = np.sort_complex(np.round(np.linalg.eigvals(blk.matrix), 6))
    assert np.max(np.abs(a - b)) < 1e-2


def test_weight_overflow(flow, escape):
    tr = op.Truncation(k_max=3, p_max=2, j_max=4)
    blk = op.build_generator(flow, op.enumerate_orbits(flow.cat, 3, 2)[0], tr)
    with pytest.raises(WeightOverflow, match=r"exceeds 700 at h = 1e\+100 on sector orbit-3,0"):
        op.apply_weight(blk, escape, h=1e100)


def test_batched_weights_split_into_runs_of_whole_sectors(flow, escape):
    # the coherent study's sectors at h = 0.05: runs of at most WEIGHT_ROWS
    # modes, each sector in one run, and the values of one call per sector
    # up to the last bits: OpenBLAS's gemv reduces the last n mod 4 rows of
    # a call in a kernel that rounds differently, and in a run a sector's
    # last rows need not be there
    h, j_max = 0.05, 12
    k_max = hs.coherent_k_max(hs.default_symbol_points(flow), h)
    tr = op.Truncation(k_max=k_max, j_max=j_max)
    items = [(s, op.sector_basis(s, tr)) for s in op.enumerate_orbits(flow.cat, k_max, 2)]
    runs = list(op.sector_log_weights(escape, h, items))
    sizes = [sum(map(len, run)) for run in runs]
    assert len(runs) > 1 and max(sizes) <= op.WEIGHT_ROWS
    assert all(a + b > op.WEIGHT_ROWS for a, b in zip(sizes, sizes[1:]))
    batched = [w for run in runs for w in run]
    assert len(batched) == len(items)
    for (sector, basis), w in zip(items, batched):
        one = op.mode_log_weight(sector, basis, escape, h)
        assert w.shape == one.shape
        assert np.max(np.abs(w - one)) <= 1e-12


def test_batched_weight_overflow_names_the_sector(flow, escape):
    # at h = 1e150 the neutral weight of a short basis is finite and the
    # orbit sector's covectors overflow: the run is searched for the sector
    tr = op.Truncation(k_max=3, p_max=2, j_max=4, j_buffer=1)
    neutral = op.build_generator(flow, op.NeutralSector(), tr)
    assert np.all(op.mode_log_weight(neutral.sector, neutral.basis, escape, 1e150) == 0.0)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[1]
    run = [(neutral.sector, neutral.basis), (sector, op.sector_basis(sector, tr))]
    with pytest.raises(WeightOverflow, match=r"at h = 1e\+150 overflows on sector "
                       r"orbit-2,0 \(54 modes, \|j\| <= 4\)"):
        list(op.sector_log_weights(escape, 1e150, run))


def _weight_items(flow, h, j_max=12):
    """The coherent study's (sector, basis) pairs at h: every orbit
    sector, then the neutral sector."""
    k_max = hs.coherent_k_max(hs.default_symbol_points(flow), h)
    tr = op.Truncation(k_max=k_max, j_max=j_max)
    return [(s, op.sector_basis(s, tr))
            for s in op.enumerate_orbits(flow.cat, k_max, 2) + [op.NeutralSector()]]


def test_mirrored_weights_equal_every_mode_evaluated(flow, escape):
    # only the j >= 0 modes are evaluated, and each j < 0 mode takes its
    # mirror's value.  Against a call on every mode, rows may move only in
    # the last cell of a call at its three largest |j|: OpenBLAS's gemv
    # reduces the last n mod 4 rows of each call in a kernel that rounds
    # differently, and a mirror copies the value of such a row
    items = _weight_items(flow, 0.05)
    runs = [[item] for item in items] + [items[i:i + 7] for i in range(0, len(items), 7)]
    moved = 0
    for run in runs:
        got = np.concatenate(op._run_log_weights(escape, 0.05, run))
        want = np.concatenate(log_weights_every_mode(escape, 0.05, run))
        js = run[-1][1][:, 1]
        top = int(js.max())
        tail = np.flatnonzero(got != want) - (len(got) - len(js))
        assert np.all(tail >= len(js) - (2 * top + 1)), tail
        assert np.all(np.abs(js[tail]) > top - 3), js[tail]
        assert np.max(np.abs(got - want)) <= 1e-13
        moved += tail.size
    assert moved < 0.01 * sum(len(basis) for run in runs for _, basis in run)


def test_mirrored_weights_need_symmetric_cells(flow, escape):
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    basis = op.sector_basis(sector, op.Truncation(j_max=4))
    for bad in (basis[:-1], basis[::-1], basis[basis[:, 1] != 2]):
        with pytest.raises(ValueError, match="ascending and symmetric"):
            op.mode_log_weight(sector, bad, escape, 0.05)


def test_neutral_weight_trivial_at_zero_neutral_order(flow, escape):
    # n0 = 0 makes the neutral-sector weight the identity
    tr = op.Truncation(j_max=4, j_buffer=1)
    blk = op.build_generator(flow, op.NeutralSector(), tr)
    logw = op.mode_log_weight(blk.sector, blk.basis, escape, 0.05)
    assert np.allclose(logw, 0.0, atol=1e-14)
    assert np.allclose(op.apply_weight(blk, escape, h=0.05), blk.matrix)


# ---------------------------------------------------------------------------
# dense solvers
# ---------------------------------------------------------------------------

def test_eigendecompose_diagonal():
    js = np.arange(-2, 3)
    pairs = op.eigendecompose(np.diag(2 * np.pi * js).astype(complex))
    vals = sorted(p.value.real for p in pairs)
    assert np.allclose(vals, 2 * np.pi * js)
    assert all(p.residual < 1e-12 for p in pairs)


def test_eigendecompose_jordan_block():
    pairs = op.eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert len(pairs) == 2
    assert all(abs(p.value) < 1e-7 for p in pairs)
    assert all(p.residual < 1e-7 for p in pairs)


def test_eigendecompose_against_charpoly_oracle():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    vals = np.array([p.value for p in op.eigendecompose(m)])
    roots = np.roots(np.poly(m))
    for v in vals:
        assert np.min(np.abs(roots - v)) < 1e-8


def test_eigendecompose_raises_non_convergence_on_non_finite_input():
    # the norm is a LAPACK call too: its failure is NonConvergence
    m = np.array([[np.inf, 1.0], [0.0, 1.0]])
    with pytest.raises(NonConvergence):
        op.eigendecompose(m)


def test_eigendecompose_sorted_by_imag():
    m = np.diag([1.0 + 0.5j, 2.0 - 1.0j, -1.0 + 0.1j])
    vals = [p.value.imag for p in op.eigendecompose(m)]
    assert vals == sorted(vals, reverse=True)


def test_singular_values_cases():
    assert np.allclose(op.singular_values(np.eye(4)), 1.0)
    assert np.allclose(op.singular_values(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    z = 0.3 - 0.7j
    before = m.copy()
    assert np.allclose(op.singular_values(m - z * np.eye(6)),
                       singular_values_gram(m, z), atol=1e-10)
    assert hs.weyl_audit(m, z).verdict
    assert np.array_equal(m, before)            # weyl_audit shifts a copy


def test_spectral_projector_rank_cases():
    assert spectral_projector_rank(np.diag([0.0, 5.0]), 0.0, 1.0) == 1
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert spectral_projector_rank(jordan, 0.0, 1.0) == 2
    with pytest.raises(ContourTooClose):
        spectral_projector_rank(np.diag([1.0, 3.0]), 0.0, 1.0)


def test_spectral_projector_rank_on_cell_block(flow):
    tr = op.Truncation(j_max=6)
    cell = op.orbit_cell_block(flow, tr)
    pairs = op.eigendecompose(cell)
    center = pairs[len(pairs) // 2].value
    inside = sum(1 for p in pairs if abs(p.value - center) <= 1.5)
    assert spectral_projector_rank(cell, center, 1.5) == inside


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def _packet_blocks(flow, k_max, j_max=8):
    tr = op.Truncation(k_max=k_max, p_max=2, j_max=j_max)
    blocks = [op.build_generator(flow, s, tr)
              for s in op.enumerate_orbits(flow.cat, k_max, 2)]
    blocks.append(op.build_generator(flow, op.NeutralSector(), tr))
    return blocks


def test_coherent_state_mass_and_overlap_decay(flow):
    h = 0.05
    blocks = _packet_blocks(flow, k_max=12)
    xi = 1.2 * np.array([flow.cat.coframe_u[0], flow.cat.coframe_u[1], 0.0])
    s1 = coherent_state(flow, blocks, (0.5, 0.5, 0.5), xi, h)
    assert s1.norm2 >= 0.99 * s1.ref_norm2
    # overlaps of separated packets decay like a Gaussian in the separation
    seps = np.array([0.10, 0.15, 0.20])
    overlaps = []
    for dx in seps:
        s2 = coherent_state(flow, blocks, (0.5 + dx, 0.5, 0.5), xi, h)
        num = sum(np.vdot(s1.coeffs[k], s2.coeffs[k]) for k in s1.coeffs)
        overlaps.append(abs(num) / np.sqrt(s1.norm2 * s2.norm2))
    slope = np.polyfit(seps ** 2, np.log(overlaps), 1)[0]
    expected = -np.sqrt(1 + xi @ xi) / (4 * h)
    assert slope == pytest.approx(expected, rel=0.15)


def test_coherent_state_symbol_expectation(flow):
    # <e, H e>/<e, e> approaches the symbol value c(tau) eta as h -> 0
    errs = []
    for h in (0.1, 0.05):
        blocks = _packet_blocks(flow, k_max=int(np.ceil(1.0 / h)) + 6)
        xi = np.array([0.9 * flow.cat.coframe_u[0], 0.9 * flow.cat.coframe_u[1], 0.7])
        st = coherent_state(flow, blocks, (0.5, 0.5, 0.4), xi, h)
        num = 0.0
        for b in blocks:
            v = st.coeffs[b.key]
            num += np.vdot(v, (h * b.matrix) @ v)
        target = flow.time_change(0.4) * 0.7
        errs.append(abs(num / st.norm2 - target))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_coherent_state_unresolved(flow):
    blocks = _packet_blocks(flow, k_max=2)
    xi = 1.2 * np.array([flow.cat.coframe_u[0], flow.cat.coframe_u[1], 0.0])
    with pytest.raises(UnresolvedState):
        coherent_state(flow, blocks, (0.5, 0.5, 0.5), xi, 0.05)


def _project_per_call(profile, flow, block):
    """Reference: the projection with its phase matrix rebuilt per call."""
    if isinstance(block.sector, op.NeutralSector):
        js = block.basis[:, 1]
        tau_int = (np.exp(-2j * np.pi * np.outer(js, profile.taus))
                   @ profile.g_tau) * profile.dtau
        x_int = op._gaussian_x_integral(np.zeros((1, 2)), profile.ax[:2],
                                        profile.xi[:2], profile.h, profile.gamma)[0]
        return x_int * tau_int
    freqs = np.asarray(block.sector.freqs, dtype=float)
    x_int = op._gaussian_x_integral(freqs, profile.ax[:2], profile.xi[:2],
                                    profile.h, profile.gamma)
    j_max = block.basis[:, 1].max()
    js = np.arange(-j_max, j_max + 1)
    phi = flow.time_change.rectified(profile.taus)
    phases = np.exp(-2j * np.pi * np.outer(js, phi) / profile.tbar)
    tau_int = ((phases @ (profile.g_tau / profile.c_vals)) * profile.dtau
               / np.sqrt(profile.tbar))
    return (x_int[:, None] * tau_int[None, :]).ravel()


def test_project_matches_per_call_phase_matrix(flow):
    prof = op.PacketProfile(flow, (0.3, 0.6, 0.4), (1.1, -0.4, 0.3), 0.1)
    for j_max in (3, 5):
        tr = op.Truncation(k_max=4, p_max=2, j_max=j_max)
        for sector in op.enumerate_orbits(flow.cat, 4, 2)[:4]:
            blk = op.build_generator(flow, sector, tr)
            assert np.array_equal(prof.project(flow, blk),
                                  _project_per_call(prof, flow, blk))
    # the neutral projection is the same midpoint sum, taken by FFT
    for j_max in (3, 24):
        blk = op.build_generator(flow, op.NeutralSector(), op.Truncation(j_max=j_max))
        got, want = prof.project(flow, blk), _project_per_call(prof, flow, blk)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _dense_hop_defect(block, nj, defect):
    """The block with its cell-to-cell hop negated or moved one cell lower."""
    m = block.matrix.copy()
    hop = m[nj:2 * nj, :nj].copy()
    for ell in range(1, block.sector.n_cells):
        rows, cols = slice(ell * nj, (ell + 1) * nj), slice((ell - 1) * nj, ell * nj)
        if defect == "sign":
            m[rows, cols] = -hop
        else:
            m[rows, cols] = 0.0
            if ell + 1 < block.sector.n_cells:
                m[(ell + 1) * nj:(ell + 2) * nj, cols] = hop
    return replace(block, matrix=m)


def test_mirror_sectors_have_bit_identical_weights():
    # the default truncation's 60 orbit sectors pair up as k0, -k0 with
    # opposite frequencies, and each pair's weights are equal bit for bit
    # for both escape functions, at h and at every coherent-study h
    cfg = parse_config(DEFAULT_CONFIG)
    flow, tr = cfg.flow(), cfg.truncation
    sectors = op.enumerate_orbits(flow.cat, tr.k_max, tr.p_max)
    groups = op.mirror_groups([op.NeutralSector()] + sectors)
    assert groups[0] == [op.NeutralSector()]
    pairs = groups[1:]
    assert len(sectors) == 60
    assert sorted(len(pair) for pair in pairs) == [2] * 30
    for a, b in pairs:
        assert b.freqs == tuple((-k1, -k2) for k1, k2 in a.freqs)
    for params in (cfg.escape, cfg.escape_alt):
        escape = EscapeFunction(flow, params)
        for h in [cfg.h, *cfg.coherent_h_list]:
            for a, b in pairs:
                wa, wb = (op.mode_log_weight(s, op.sector_basis(s, tr), escape, h)
                          for s in (a, b))
                assert wa.tobytes() == wb.tobytes()


def _cells(*freqs):
    """An orbit sector with the given cell frequencies."""
    return op.OrbitSector(freqs[0], 0, len(freqs) - 1, freqs)


def test_mirror_key_is_sign_canonical():
    assert op.mirror_key(_cells((1, 0), (2, 1))) == ((1, 0), (2, 1))
    assert op.mirror_key(_cells((-1, 0), (-2, -1))) == ((1, 0), (2, 1))
    assert op.mirror_key(_cells((0, -1), (-1, -1))) == ((0, 1), (1, 1))
    assert op.mirror_key(_cells((1, 0))) != op.mirror_key(_cells((0, 1)))


@pytest.mark.parametrize("variation, flux", [(0.0, 1.6), (0.2, 1.6), (0.2, 0.7)])
def test_orbit_expectation_matches_dense_oracle(variation, flux):
    flow = default_flow(variation)
    escape = EscapeFunction(flow, OrderParams())
    tr = op.Truncation(k_max=4, p_max=2, j_max=3, flux_penalty=flux)
    nj = 2 * tr.j_max + 1
    # the sectors that carry the packet's mass, with five to eight cells
    keep = {(1, 0), (0, -1), (2, -1), (2, 0), (3, -1)}
    sectors = [s for s in op.enumerate_orbits(flow.cat, 4, 2) if s.k0 in keep]
    assert len(sectors) == 5 and min(s.n_cells for s in sectors) >= 5
    rng = np.random.default_rng(2)
    for h in (0.14, 0.1):
        prof = op.PacketProfile(flow, (0.3, 0.6, 0.4), (1.1, -0.4, 0.3), h)
        for sector in sectors:
            blk = op.build_generator(flow, sector, tr)
            logw = op.mode_log_weight(sector, blk.basis, escape, h)
            packet = prof.project(flow, blk).reshape(sector.n_cells, nj)
            noise = rng.normal(size=packet.shape) + 1j * rng.normal(size=packet.shape)
            got = h * op.orbit_expectation(flow, tr, logw.reshape(sector.n_cells, nj),
                                           np.stack([packet, noise]))
            for value, v in zip(got, (packet, noise)):
                want = dense_orbit_expectation(blk, escape, h, v.ravel())
                assert abs(value - want) <= 1e-13 * abs(want)
            # negative control: the comparison catches a defective hop
            for defect in ("sign", "shift"):
                bad = dense_orbit_expectation(_dense_hop_defect(blk, nj, defect),
                                              escape, h, noise.ravel())
                assert abs(got[1] - bad) > 1e-6 * abs(bad)


# ---------------------------------------------------------------------------
# partition / numerical range checks
# ---------------------------------------------------------------------------

def test_quadratic_partition_exact():
    r = np.linspace(0.0, 12.0, 200)
    chi0, chi1 = op.quadratic_partition(r, 2.0, 10.0)
    assert np.max(np.abs(chi0 ** 2 + chi1 ** 2 - 1.0)) < 1e-14
    assert chi0[0] == 1.0 and chi1[0] == 0.0
    assert chi0[-1] == pytest.approx(0.0, abs=1e-14)


def test_partition_ims_trivial_cases(flow, escape):
    tr = op.Truncation(j_max=12, j_buffer=4)
    blk = op.build_generator(flow, op.NeutralSector(), tr)
    # chi0 == 1 on the whole window: residual vanishes identically
    res = op.partition_ims_check(blk, escape, 1 + 1j, [0.05], trials=5,
                                 r0=1e6, r1=2e6)
    assert res[0.05] < 1e-13
    # diagonal matrix commutes with the multipliers exactly
    flow1 = default_flow(0.0)
    blk1 = op.build_generator(flow1, op.NeutralSector(), tr)
    ef1 = EscapeFunction(flow1, OrderParams())
    res1 = op.partition_ims_check(blk1, ef1, 1 + 1j, [0.05], trials=5)
    assert res1[0.05] < 1e-12


def test_garding_hermitian_and_shift(flow_const, flow, escape):
    tr = op.Truncation(j_max=10, j_buffer=2)
    blk = op.build_generator(flow_const, op.NeutralSector(), tr)
    ef0 = EscapeFunction(flow_const, OrderParams())
    hp = 0.05 * op.apply_weight(blk, ef0, h=0.05)
    assert abs(op.garding_upper_check(hp, trials=50)) < 1e-12
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    hp2 = 0.05 * op.apply_weight(op.build_generator(flow, sector,
                                                    op.Truncation(k_max=3, j_max=8)),
                                 escape, h=0.05)
    g0 = op.garding_upper_check(hp2, trials=40, seed=5)
    g1 = op.garding_upper_check(hp2, trials=40, seed=5, shift=0.3)
    assert g1 == pytest.approx(g0 - 0.3, abs=1e-12)

