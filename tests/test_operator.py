from dataclasses import replace

import numpy as np
import pytest

from catspec import cotangent
from catspec import harness as hs
from catspec import operator as op
from catspec.config import DEFAULT_CONFIG, parse_config
from catspec.errors import (NonConvergence, TruncationTooLarge, UnresolvedState,
                            WeightOverflow)
from catspec.escape import EscapeFunction
from catspec.model import CatMap
from oracles import (ContourTooClose, coherent_state, dense_orbit_expectation,
                     enumerate_orbits_per_point, log_weights_every_mode,
                     log_weights_one_pass, numerical_range_top,
                     orbit_representative, project_packet, singular_values_gram,
                     spectral_projector_rank)


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


@pytest.mark.parametrize("cat", [CatMap(2, 1, 1, 1), CatMap(3, 2, 1, 1)], ids=["default", "3211"])
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


def test_restricted_orbits_equal_the_walk(flow):
    # the coherent study walks once, at its largest cutoff (35 at the
    # default's smallest h), and reads each smaller cutoff's sectors off
    # that list: order, k0, cells and kept positions as the walk gives them
    big = op.enumerate_orbits(flow.cat, 35, 2)
    for k_max in (7, 8, 13, 20, 35):
        want = op.enumerate_orbits(flow.cat, k_max, 2)
        assert op.restrict_orbits(flow.cat, big, k_max, 2) == want, k_max
        # negative control: the sectors of the smaller ball with the walks
        # kept at the larger cutoff
        if k_max < 35:
            in_ball = [s for s in big if s.k0[0] ** 2 + s.k0[1] ** 2 <= k_max ** 2]
            assert [s.k0 for s in in_ball] == [s.k0 for s in want] and in_ball != want


# ---------------------------------------------------------------------------
# generator blocks
# ---------------------------------------------------------------------------

def test_neutral_block_constant_time_change(flow_const, defaults):
    tr = replace(defaults.truncation, j_max=2, j_buffer=1)
    blk = op.build_generator(flow_const, op.NeutralSector(), tr)
    js = blk.basis[:, 1]
    assert np.allclose(blk.matrix, np.diag(2 * np.pi * js))
    inner = blk.matrix[1:-1, 1:-1]      # the unbuffered part
    assert np.allclose(np.sort(np.diag(inner).real),
                       [-4 * np.pi, -2 * np.pi, 0.0, 2 * np.pi, 4 * np.pi])
    # self-adjoint when the flow preserves the volume
    assert np.linalg.norm(blk.matrix - blk.matrix.conj().T) < 1e-12


def test_neutral_block_is_banded_by_cosine(flow, defaults):
    tr = replace(defaults.truncation, j_max=4, j_buffer=1)
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


def test_dense_blocks_stop_at_the_ceiling(flow, defaults):
    # each dense block is built up to DENSE_DIM_CEILING modes and refused past
    # it, before anything of its size is allocated
    ceiling, tr = op.DENSE_DIM_CEILING, defaults.truncation
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    j_orbit = next(j for j in range(ceiling) if sector.n_cells * (2 * j + 1) > ceiling)
    j_buffer = (ceiling - 2 * tr.j_max - 1) // 2    # the neutral sector's modes
    cases = [(lambda t: op.orbit_cell_block(flow, t), {"j_max": (ceiling - 1) // 2}),
             (lambda t: op.build_generator(flow, op.NeutralSector(), t).matrix,
              {"j_buffer": j_buffer}),
             (lambda t: op.build_generator(flow, sector, t).matrix, {"j_max": j_orbit - 1})]
    for build, fits in cases:
        key, value = fits.popitem()
        assert len(build(replace(tr, **{key: value}))) <= ceiling
        with pytest.raises(TruncationTooLarge, match=f"above {ceiling}$"):
            build(replace(tr, **{key: value + 1}))
    with pytest.raises(TruncationTooLarge, match="p_max = 1000 overflows"):
        op.enumerate_orbits(flow.cat, 3, 1000)


def test_orbit_block_structure(flow, defaults):
    tr = replace(defaults.truncation, k_max=3, p_max=2, j_max=3)
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
    assert numerical_range_top(blk.matrix) <= 1e-10


def test_numerical_range_top_of_a_nilpotent_block():
    # Im <u, N u> over unit u for N = [[0, 2], [0, 0]] peaks at 1
    top = numerical_range_top(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert abs(top - 1.0) < 1e-12, top


def test_orbit_block_spectrum_is_cell_spectrum(flow, defaults):
    tr = replace(defaults.truncation, k_max=3, p_max=2, j_max=3)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    blk = op.build_generator(flow, sector, tr)
    cell_vals = np.linalg.eigvals(op.orbit_cell_block(flow, tr))
    full_vals = np.linalg.eigvals(blk.matrix)
    d = np.min(np.abs(full_vals[:, None] - cell_vals[None, :]), axis=1)
    # dense solves scatter the degenerate towers but stay near the block roots
    assert np.max(d) < 0.05


def test_orbit_line_eigenvalues_in_lower_half_plane(flow, defaults):
    """Truncated transport on the orbit line with geometric weight decay:
    eigenvalues sit in the lower half plane, against a high-precision dense
    solve of the same matrix.

    The cell degeneracy makes the towers Jordan-like, so both solvers
    scatter them at the (eps^(1/cells)) level; the comparison tolerance
    reflects that, while the sign statement itself is exact.
    """
    import mpmath as mp

    tr = replace(defaults.truncation, k_max=3, p_max=2, j_max=1)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    blk = op.build_generator(flow, sector, tr)
    escape = EscapeFunction(flow, replace(defaults.escape, u=-2.0, s=2.0))
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


def test_mode_basis_layout_and_covectors_match_per_mode_loop(flow, defaults):
    tr = replace(defaults.truncation, k_max=4, p_max=2, j_max=5, j_buffer=3)
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
    assert single.shape == (2,) and np.array_equal(single, batch[0, 0])


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


def test_conjugate_by_diagonal_raises_outside_the_double_range(recwarn):
    # a finite result keeps the bits of the plain formula; an entry scaled
    # past the double range raises WeightOverflow instead of warning
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    logw = rng.uniform(-300.0, 300.0, size=6)
    want = m * np.exp(np.subtract.outer(logw, logw))
    assert np.array_equal(op.conjugate_by_diagonal(m.copy(), logw), want)
    for big, logw in ((np.array([[1.0, 1e306], [0.0, 1.0]]), [10.0, 0.0]),
                      (np.eye(2, dtype=complex), [710.0, 0.0])):   # e^710 overflows
        with pytest.raises(WeightOverflow, match="leaves the double range"):
            op.conjugate_by_diagonal(big, logw)
    assert not recwarn.list


def test_similarity_exact_on_nondegenerate_block(flow, defaults):
    # the conjugation is an exact similarity: on a simple-spectrum matrix
    # the eigenvalues agree at solver precision
    tr = replace(defaults.truncation, j_max=10)
    cell = op.orbit_cell_block(flow, tr)
    rng = np.random.default_rng(4)
    logw = rng.uniform(-3.0, 3.0, size=cell.shape[0])
    conj = op.conjugate_by_diagonal(cell.copy(), logw)
    a = np.sort_complex(np.linalg.eigvals(cell))
    b = np.sort_complex(np.linalg.eigvals(conj))
    assert np.max(np.abs(a - b)) < 1e-10


def test_apply_weight_diagonal_preserved(flow, escape, defaults):
    tr = replace(defaults.truncation, k_max=3, p_max=2, j_max=4)
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


def test_weight_overflow(flow, escape, defaults):
    tr = replace(defaults.truncation, k_max=3, p_max=2, j_max=4)
    blk = op.build_generator(flow, op.enumerate_orbits(flow.cat, 3, 2)[0], tr)
    with pytest.raises(WeightOverflow, match=r"exceeds 700 at h = 1e\+100 on sector orbit-3,0"):
        op.apply_weight(blk, escape, h=1e100)


def test_batched_weights_split_into_runs_of_whole_sectors(flow, escape, defaults):
    # the coherent study's sectors at h = 0.05: runs of at most WEIGHT_ROWS
    # modes, each sector in one run, and the values of one call per sector
    # bit for bit: a profile does not depend on its batch
    h, j_max = 0.05, 12
    k_max = hs.coherent_k_max(hs.default_symbol_points(flow), h)
    tr = replace(defaults.truncation, k_max=k_max, j_max=j_max)
    items = [(s, op.sector_basis(s, tr)) for s in op.enumerate_orbits(flow.cat, k_max, 2)]
    runs = list(op.sector_log_weights(escape, h, items, {}))
    sizes = [sum(map(len, run)) for run in runs]
    assert len(runs) > 1 and max(sizes) <= op.WEIGHT_ROWS
    assert all(a + b > op.WEIGHT_ROWS for a, b in zip(sizes, sizes[1:]))
    batched = [w for run in runs for w in run]
    assert len(batched) == len(items)
    for (sector, basis), w in zip(items, batched):
        one = op.mode_log_weight(sector, basis, escape, h)
        assert np.array_equal(w, one)


def test_weyl_groups_weigh_in_one_pass_as_each_sector_alone(flow, escape, defaults):
    # the weyl check's groups on the default config, weighed in one
    # sector_log_weights pass in check order and in reverse: each sector's
    # log weights are those of mode_log_weight on it alone, bit for bit
    tr, h = defaults.truncation, defaults.h
    sectors = [op.NeutralSector()] + op.enumerate_orbits(flow.cat, tr.k_max, tr.p_max)
    items = [(g[0], op.sector_basis(g[0], tr)) for g in op.mirror_groups(sectors)]
    items = [item for item in items if len(item[1]) <= hs.WEYL_DIM_LIMIT]
    assert len(items) == 31
    alone = [op.mode_log_weight(sector, basis, escape, h) for sector, basis in items]
    for order in (items, items[::-1]):
        batched = [w for run in op.sector_log_weights(escape, h, order, {}) for w in run]
        if order is not items:
            batched.reverse()
        assert len(batched) == len(alone)
        assert all(np.array_equal(w, one) for w, one in zip(batched, alone))


def test_batched_weight_overflow_names_the_sector(flow, escape, defaults):
    # at h = 1e150 the neutral weight of a short basis is finite and the
    # orbit sector's covectors overflow: the run is searched for the sector
    tr = replace(defaults.truncation, k_max=3, p_max=2, j_max=4, j_buffer=1)
    neutral = op.build_generator(flow, op.NeutralSector(), tr)
    assert np.all(op.mode_log_weight(neutral.sector, neutral.basis, escape, 1e150) == 0.0)
    sector = op.enumerate_orbits(flow.cat, 3, 2)[1]
    run = [(neutral.sector, neutral.basis), (sector, op.sector_basis(sector, tr))]
    with pytest.raises(WeightOverflow, match=r"at h = 1e\+150 overflows on sector "
                       r"orbit-2,0 \(54 modes, \|j\| <= 4\)"):
        list(op.sector_log_weights(escape, 1e150, run, {}))


def _weight_items(flow, truncation, h, j_max=12):
    """The coherent study's (sector, basis) pairs at h: every orbit
    sector, then the neutral sector."""
    k_max = hs.coherent_k_max(hs.default_symbol_points(flow), h)
    tr = replace(truncation, k_max=k_max, j_max=j_max)
    return [(s, op.sector_basis(s, tr))
            for s in op.enumerate_orbits(flow.cat, k_max, 2) + [op.NeutralSector()]]


def test_mirrored_weights_equal_every_mode_evaluated(flow, escape, defaults):
    # only the j >= 0 modes are evaluated, and each j < 0 mode takes its
    # mirror's value: the weights of a call on every mode, bit for bit,
    # since a profile does not depend on its batch or its place in it
    items = _weight_items(flow, defaults.truncation, 0.05)
    runs = [[item] for item in items] + [items[i:i + 7] for i in range(0, len(items), 7)]
    for run in runs:
        got = np.concatenate(op._run_log_weights(escape, 0.05, run, {}))
        assert np.array_equal(got, np.concatenate(log_weights_every_mode(escape, 0.05, run)))


def _runs(escape, h, items, memo):
    """`sector_log_weights`'s runs: each run's (sector, basis) pairs and
    their log weights."""
    rest = iter(items)
    return [([next(rest) for _ in logws], logws)
            for logws in op.sector_log_weights(escape, h, items, memo)]


def _memo_weights(escape, h, items, memo):
    return np.concatenate([w for _, logws in _runs(escape, h, items, memo) for w in logws])


def test_fresh_memo_weights_equal_one_pass_per_run(flow, escape, defaults):
    # the Weyl check's sectors at the campaign's h, one run per sector as
    # the check weighs them and batched, and the coherent study's sectors
    # at h = 0.05, one per k0, -k0 pair as the study weighs them: with a
    # fresh memo, each run's bits are those of one escape_value call on its
    # live modes
    tr = defaults.truncation
    sectors = [op.NeutralSector()] + op.enumerate_orbits(flow.cat, tr.k_max, tr.p_max)
    weyl = [(g[0], op.sector_basis(g[0], tr)) for g in op.mirror_groups(sectors)]
    for sector, basis in weyl:
        assert np.array_equal(op.mode_log_weight(sector, basis, escape, defaults.h),
                              log_weights_one_pass(escape, defaults.h, [(sector, basis)])[0])
    coherent = {op.mirror_key(s): (s, basis) for s, basis in _weight_items(flow, tr, 0.05)}
    for h, items in ((defaults.h, weyl), (0.05, list(coherent.values()))):
        runs = _runs(escape, h, items, {})
        assert len(runs) > 1
        for run, logws in runs:
            for got, want in zip(logws, log_weights_one_pass(escape, h, run), strict=True):
                assert np.array_equal(got, want)


def _time_reversed(memo):
    """A memo that serves cell k the entry of its time reversal R k."""
    def canonical(k):
        return max(k, (-k[0], -k[1]))

    return {key: memo[canonical((-key[1], key[0]))] for key in memo
            if canonical((-key[1], key[0])) in memo}


def test_memo_shared_across_h_and_j_max_keeps_the_weights(flow, escape, defaults, monkeypatch):
    # the coherent study's sequence, h = 0.14 then 0.1, then 0.1 with a
    # larger j_max, which extends each cell's entry: the profiles read from
    # the memo were evaluated at another h and in other batches, so every
    # log weight agrees with a fresh evaluation up to round-off only.  The
    # bound is 1e-13 relative, and absolute below |log weight| = 1, where
    # the order's level cancels (the worst gap is 7.7e-15 at 0.0746): an
    # absolute gap in the log weight is the relative gap of the weight
    rows = []
    profiles = EscapeFunction._profiles

    def counted(self, adapted, rates):
        rows.append(len(adapted))
        return profiles(self, adapted, rates)

    monkeypatch.setattr(EscapeFunction, "_profiles", counted)
    memo, steps = {}, ((0.14, 12), (0.1, 12), (0.1, 16))
    for h, j_max in steps:
        items = _weight_items(flow, defaults.truncation, h, j_max)
        rows.clear()
        want = _memo_weights(escape, h, items, {})
        fresh = sum(rows)
        rows.clear()
        got = _memo_weights(escape, h, items, memo)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
        # the first step evaluates every live row, the later ones only
        # those the memo lacks: h = 0.1's new cells, then j = 13, ..., 16
        assert (sum(rows) == fresh) if h == 0.14 else (0 < sum(rows) < fresh)
        if h == 0.14:
            reversed_memo = _time_reversed(memo)
    assert {entry.shape[1] for key, entry in memo.items() if key != (0, 0)} == {17}
    # negative control: a memo that serves each cell the profiles of its
    # time reversal R k moves the weights far beyond round-off
    items = _weight_items(flow, defaults.truncation, 0.1)
    want = _memo_weights(escape, 0.1, items, {})
    got = _memo_weights(escape, 0.1, items, reversed_memo)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) > 1e-2


def test_mirrored_weights_need_symmetric_cells(flow, escape, defaults):
    sector = op.enumerate_orbits(flow.cat, 3, 2)[0]
    basis = op.sector_basis(sector, replace(defaults.truncation, j_max=4))
    for bad in (basis[:-1], basis[::-1], basis[basis[:, 1] != 2]):
        with pytest.raises(ValueError, match="ascending and symmetric"):
            op.mode_log_weight(sector, bad, escape, 0.05)


def test_neutral_weight_trivial_at_zero_neutral_order(flow, escape, defaults):
    # n0 = 0 makes the neutral-sector weight the identity
    tr = replace(defaults.truncation, j_max=4, j_buffer=1)
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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_eigenvalues_raise_non_convergence_on_non_finite_input(bad):
    # the eigenvalue-only solve keeps eigendecompose's error contract: a
    # CatspecError, never numpy's LinAlgError
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    for solve in (op.eigenvalues, op.eigendecompose):
        with pytest.raises(NonConvergence):
            solve(m)


def test_eigenvalues_are_those_of_eigendecompose():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    vals = np.sort_complex(op.eigenvalues(m))
    pairs = np.sort_complex([p.value for p in op.eigendecompose(m)])
    assert np.allclose(vals, pairs, rtol=0.0, atol=1e-12)


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


def test_spectral_projector_rank_on_cell_block(flow, defaults):
    tr = replace(defaults.truncation, j_max=6)
    cell = op.orbit_cell_block(flow, tr)
    pairs = op.eigendecompose(cell)
    center = pairs[len(pairs) // 2].value
    inside = sum(1 for p in pairs if abs(p.value - center) <= 1.5)
    assert spectral_projector_rank(cell, center, 1.5) == inside


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def _packet_blocks(flow, truncation, k_max, j_max=8):
    tr = replace(truncation, k_max=k_max, p_max=2, j_max=j_max)
    blocks = [op.build_generator(flow, s, tr)
              for s in op.enumerate_orbits(flow.cat, k_max, 2)]
    blocks.append(op.build_generator(flow, op.NeutralSector(), tr))
    return blocks


def test_coherent_state_mass_and_overlap_decay(flow, defaults):
    h = 0.05
    blocks = _packet_blocks(flow, defaults.truncation, k_max=12)
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


def test_coherent_state_symbol_expectation(flow, defaults):
    # <e, H e>/<e, e> approaches the symbol value c(tau) eta as h -> 0
    errs = []
    for h in (0.1, 0.05):
        blocks = _packet_blocks(flow, defaults.truncation, k_max=int(np.ceil(1.0 / h)) + 6)
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


def test_coherent_state_unresolved(flow, defaults):
    blocks = _packet_blocks(flow, defaults.truncation, k_max=2)
    xi = 1.2 * np.array([flow.cat.coframe_u[0], flow.cat.coframe_u[1], 0.0])
    with pytest.raises(UnresolvedState):
        coherent_state(flow, blocks, (0.5, 0.5, 0.5), xi, 0.05)


def _project_per_call(profile, flow, block):
    """Reference: the projection with its phase matrix rebuilt per call."""
    if isinstance(block.sector, op.NeutralSector):
        js = block.basis[:, 1]
        tau_int = (np.exp(-2j * np.pi * np.outer(js, profile.taus))
                   @ profile.g_tau) * profile.grid.dtau
        x_int = op.torus_overlaps([profile], np.zeros((1, 2)))[0, 0]
        return x_int * tau_int
    freqs = np.asarray(block.sector.freqs, dtype=float)
    x_int = op.torus_overlaps([profile], freqs)[0]
    j_max = block.basis[:, 1].max()
    js = np.arange(-j_max, j_max + 1)
    phi = flow.time_change.rectified(profile.taus)
    phases = np.exp(-2j * np.pi * np.outer(js, phi) / flow.period)
    tau_int = ((phases @ (profile.g_tau / profile.grid.c_vals)) * profile.grid.dtau
               / np.sqrt(flow.period))
    return (x_int[:, None] * tau_int[None, :]).ravel()


@pytest.mark.parametrize("h", [0.14, 0.1, 0.0125])
def test_packets_share_tau_factors_bit_for_bit(flow, defaults, h, monkeypatch):
    # the ten symbol points on one grid share five tau factors (tau_key);
    # ref_norm2, the neutral projection and the orbit tau integrals equal
    # those of ten independent profiles, a grid each, bit for bit
    points = hs.default_symbol_points(flow)
    neutral = op.build_generator(flow, op.NeutralSector(),
                                 replace(defaults.truncation, k_max=3, j_max=12))
    phases = op.TauGrid(flow).phase_table(12)

    def factors(grid):
        profiles = [op.PacketProfile(grid(), ax, xi, h) for ax, xi in points]
        return [(np.float64(p.ref_norm2).tobytes(), p.project(flow, neutral).tobytes(),
                 p.orbit_tau_integrals(phases).tobytes()) for p in profiles]

    alone = factors(lambda: op.TauGrid(flow))
    shared = op.TauGrid(flow)
    assert factors(lambda: shared) == alone and len(shared.packets) == 5
    # negative control: a key without xi_3 merges points 8 and 9, whose
    # xi_3 are +-0.35, and point 9 then reads point 8's factor
    monkeypatch.setattr(op.PacketProfile, "tau_key", lambda self: (self.ax[2], self.gamma, self.h))
    merged = op.TauGrid(flow)
    got = factors(lambda: merged)
    assert len(merged.packets) == 4 and got[:9] == alone[:9]
    assert got[9][0] == alone[9][0] and got[9][1] != alone[9][1] and got[9][2] != alone[9][2]


@pytest.mark.parametrize("j_max", [0, 1, 12, 20])
def test_phase_table_equals_the_direct_formula(flow, j_max):
    # rows -j are conjugates of rows j; bit for bit, signed zeros included
    prof = op.PacketProfile(op.TauGrid(flow), (0.3, 0.6, 0.4), (1.1, -0.4, 0.3), 0.1)
    js = np.arange(-j_max, j_max + 1)
    phi = flow.time_change.rectified(prof.taus)
    want = np.exp(-2j * np.pi * np.outer(js, phi) / flow.period)
    got = prof.grid.phase_table(j_max)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_project_matches_per_call_phase_matrix(flow, defaults):
    prof = op.PacketProfile(op.TauGrid(flow), (0.3, 0.6, 0.4), (1.1, -0.4, 0.3), 0.1)
    for j_max in (3, 5):
        tr = replace(defaults.truncation, k_max=4, p_max=2, j_max=j_max)
        for sector in op.enumerate_orbits(flow.cat, 4, 2)[:4]:
            blk = op.build_generator(flow, sector, tr)
            assert np.array_equal(project_packet(prof, flow, blk),
                                  _project_per_call(prof, flow, blk))
            # the package projects onto the neutral block only
            with pytest.raises(ValueError, match="neutral block"):
                prof.project(flow, blk)
    # the neutral projection is the same midpoint sum, taken by FFT
    for j_max in (3, 24):
        blk = op.build_generator(flow, op.NeutralSector(),
                                 replace(defaults.truncation, j_max=j_max))
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
    # for the configured order set and another one, at h and at every
    # coherent-study h
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
    for params in (cfg.escape, replace(cfg.escape, u=-6.0, s=12.0, t_avg=10.0, aperture=0.08)):
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


def _dense_flux_defect(block, period, log_weight):
    """The block whose weighted flux reads W F W instead of W F W^-1 (B
    built with w instead of 1/w); the frequency diagonal is kept."""
    omega = 2.0 * np.pi / period * block.basis[:, 1]
    flux = block.matrix - np.diag(omega)
    return replace(block, matrix=np.diag(omega) + flux * np.exp(2.0 * log_weight)[None, :])


@pytest.mark.parametrize("variation, flux", [(0.0, 1.6), (0.2, 1.6), (0.2, 0.7)])
def test_orbit_expectation_matches_dense_oracle(variation, flux, defaults):
    flow = parse_config(f"[model]\nc_cos = {variation or ''}\n").flow()
    escape = EscapeFunction(flow, defaults.escape)
    tr = replace(defaults.truncation, k_max=4, p_max=2, j_max=3, flux_penalty=flux)
    nj = 2 * tr.j_max + 1
    # the sectors that carry the packet's mass, with five to eight cells,
    # and their mirrors through -k0, which share their weight rows
    keep = {(1, 0), (0, -1), (2, -1), (2, 0), (3, -1)}
    groups = [g for g in op.mirror_groups(op.enumerate_orbits(flow.cat, 4, 2))
              if keep & {s.k0 for s in g}]
    sectors = [s for g in groups for s in g]
    assert len(groups) == 5 and len(sectors) == 10
    assert min(s.n_cells for s in sectors) >= 5
    rows = np.concatenate([sum(g[0].n_cells for g in groups[:i]) + np.arange(s.n_cells)
                           for i, g in enumerate(groups) for s in g])
    starts = np.cumsum([0] + [s.n_cells for s in sectors[:-1]])
    cells = [k for s in sectors for k in s.freqs]
    rng = np.random.default_rng(2)
    for h in (0.14, 0.1):
        prof = op.PacketProfile(op.TauGrid(flow), (0.3, 0.6, 0.4), (1.1, -0.4, 0.3), h)
        logw = np.concatenate([op.mode_log_weight(g[0], op.sector_basis(g[0], tr), escape, h)
                               for g in groups]).reshape(-1, nj)
        # the packet's factors, then random rank-one factors
        x = np.stack([op.torus_overlaps([prof], cells)[0],
                      rng.normal(size=len(cells)) + 1j * rng.normal(size=len(cells))])
        tau = np.stack([prof.orbit_tau_integrals(prof.grid.phase_table(tr.j_max)),
                        rng.normal(size=nj) + 1j * rng.normal(size=nj)])
        got = h * op.orbit_expectation(flow, tr, logw, rows, starts, x, tau)
        assert got.shape == (len(sectors), 2)
        for sector, first, values in zip(sectors, starts, got):
            blk = op.build_generator(flow, sector, tr)
            vecs = [np.outer(xp[first:first + sector.n_cells], tp).ravel()
                    for xp, tp in zip(x, tau)]
            for value, v in zip(values, vecs):
                want = dense_orbit_expectation(blk, escape, h, v)
                assert abs(value - want) <= 1e-13 * abs(want)
            # negative controls: the comparison catches a defective hop, and
            # a flux sum B taken with w instead of 1/w
            own = op.mode_log_weight(sector, blk.basis, escape, h)
            for bad_block in (_dense_hop_defect(blk, nj, "sign"),
                              _dense_hop_defect(blk, nj, "shift"),
                              _dense_flux_defect(blk, flow.period, own)):
                bad = dense_orbit_expectation(bad_block, escape, h, vecs[1])
                assert abs(values[1] - bad) > 1e-6 * abs(bad)


# ---------------------------------------------------------------------------
# partition / numerical range checks
# ---------------------------------------------------------------------------

def test_quadratic_partition_exact():
    r = np.linspace(0.0, 12.0, 200)
    chi0, chi1 = op.quadratic_partition(r, 2.0, 10.0)
    assert np.max(np.abs(chi0 ** 2 + chi1 ** 2 - 1.0)) < 1e-14
    assert chi0[0] == 1.0 and chi1[0] == 0.0
    assert chi0[-1] == pytest.approx(0.0, abs=1e-14)


def test_partition_ims_trivial_cases(flow, flow_const, escape, defaults):
    tr = replace(defaults.truncation, j_max=12, j_buffer=4)
    blk = op.build_generator(flow, op.NeutralSector(), tr)
    # chi0 == 1 on the whole window: residual vanishes identically
    res = op.partition_ims_check(blk, escape, 1 + 1j, [0.05], trials=5,
                                 r0=1e6, r1=2e6, seed=0)
    assert res[0.05] < 1e-13
    # diagonal matrix commutes with the multipliers exactly
    blk1 = op.build_generator(flow_const, op.NeutralSector(), tr)
    ef1 = EscapeFunction(flow_const, defaults.escape)
    res1 = op.partition_ims_check(blk1, ef1, 1 + 1j, [0.05], trials=5,
                                  r0=2.0, r1=10.0, seed=0)
    assert res1[0.05] < 1e-12


def test_garding_upper_check_raises_on_a_non_finite_sample(recwarn):
    # a NaN entry, and finite entries whose products overflow: no sample is
    # finite, so the check raises instead of returning -inf
    for hp in (np.full((3, 3), np.nan), np.full((3, 3), 1e308 + 0j)):
        with pytest.raises(NonConvergence, match="outside the double range"):
            op.garding_upper_check(hp, trials=5, seed=0)
    assert not recwarn.list


def test_garding_hermitian_and_shift(flow_const, defaults):
    tr = replace(defaults.truncation, j_max=10, j_buffer=2)
    blk = op.build_generator(flow_const, op.NeutralSector(), tr)
    ef0 = EscapeFunction(flow_const, defaults.escape)
    hp = 0.05 * op.apply_weight(blk, ef0, h=0.05)
    assert abs(op.garding_upper_check(hp, trials=50, seed=0)) < 1e-12

