import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from catspec import charpoly
from catspec import harness as hs
from catspec.errors import NonConvergence
from oracles import berkowitz, reference_polynomials, shifted_dyadic


def _poly_from_roots(roots):
    """Monic Gaussian-integer polynomial with the given Gaussian-integer roots."""
    poly = [(1, 0)]
    for r in roots:
        a, b = int(complex(r).real), int(complex(r).imag)
        poly = [(x - (a * u - b * v), y - (a * v + b * u))
                for (x, y), (u, v) in zip(poly + [(0, 0)], [(0, 0)] + poly)]
    return poly


def _dist2(root, re, im=0):
    """Exact squared distance from the root triple ``(re, im, frac)`` of
    ``charpoly.roots`` to the Gaussian integer ``re + i im``."""
    a, b, frac = root
    return (Fraction(a, 2 ** frac) - re) ** 2 + (Fraction(b, 2 ** frac) - im) ** 2


def test_shifted_dyadic_is_exact():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) * 1e3 + 1j * rng.normal(size=(4, 4)) * 1e-5
    z = complex(0.1, -1e-7)
    re, im, e = shifted_dyadic(a, z)
    for i in range(4):
        for j in range(4):
            shift = z if i == j else 0j
            assert Fraction(re[i][j], 2 ** e) == Fraction(a[i, j].real) - Fraction(shift.real)
            assert Fraction(im[i][j], 2 ** e) == Fraction(a[i, j].imag) - Fraction(shift.imag)


def test_berkowitz_satisfies_cayley_hamilton_exactly():
    rng = np.random.default_rng(1)
    re = rng.integers(-2 ** 40, 2 ** 40, size=(7, 7)).tolist()
    im = rng.integers(-2 ** 40, 2 ** 40, size=(7, 7)).tolist()
    # the entries are float64 integers: B = A with e = 0
    [(poly, _, e)] = charpoly.polynomials((np.array(re) + 1j * np.array(im))[None], 0)
    assert e == 0
    assert len(poly) == 8 and poly[0] == (1, 0)
    mr, mi = np.array(re, dtype=object), np.array(im, dtype=object)
    # p(M) = 0 by Horner's rule in exact Gaussian-integer matrices
    acc_r = np.zeros((7, 7), dtype=object)
    acc_i = np.zeros((7, 7), dtype=object)
    for cr, ci in poly:
        acc_r, acc_i = acc_r.dot(mr) - acc_i.dot(mi), acc_r.dot(mi) + acc_i.dot(mr)
        for k in range(7):
            acc_r[k, k] += cr
            acc_i[k, k] += ci
    assert not acc_r.any() and not acc_i.any()
    # the trace is minus the second coefficient
    assert poly[1] == (-sum(re[k][k] for k in range(7)), -sum(im[k][k] for k in range(7)))


def test_gram_is_the_hermitian_product():
    rng = np.random.default_rng(2)
    re = rng.integers(-99, 99, size=(5, 5))
    im = rng.integers(-99, 99, size=(5, 5))
    b = re + 1j * im
    g = b.conj().T @ b
    gr, gi = g.real.astype(np.int64), g.imag.astype(np.int64)
    # lane + of the kernel's Gram holds the residues of Bᴴ B under i -> +I
    p, i = charpoly._primes(2 ** 70)
    lanes = np.stack([(re + im * i[:, None, None]) % p[:, None, None],
                      (re - im * i[:, None, None]) % p[:, None, None]], axis=1)
    lane = charpoly.gram(lanes[None], p)[0]
    assert np.array_equal(lane, (gr + gi * i[:, None, None]) % p[:, None, None])
    # and its polynomial is that of the exact Gram matrix
    [(_, poly, e)] = charpoly.polynomials(b[None], 0)
    assert e == 0 and poly == berkowitz(gr.tolist(), gi.tolist())


def test_prime_table_is_verified():
    # the literal table and its extension: primes p = 1 (mod 4) below 2**26,
    # largest first, with I**2 = -1 (mod p); primality by trial division
    small = [d for d in range(2, 8193) if all(d % q for q in range(2, math.isqrt(d) + 1))]
    pairs = list(itertools.islice(charpoly._lane_primes(), len(charpoly.PRIMES) + 5))
    assert pairs[:len(charpoly.PRIMES)] == list(charpoly.PRIMES)
    primes = [q for q, _ in pairs]
    assert primes == sorted(set(primes), reverse=True) and primes[0] < 2 ** 26
    for q, root in pairs:
        assert all(q % d for d in small if d * d <= q)
        assert q % 4 == 1 and root * root % q == q - 1
    # the fewest primes whose product P has (P - 1) / 2 above the bound
    p, _ = charpoly._primes(2 ** (26 * len(charpoly.PRIMES)))
    assert p.tolist() == primes[:len(charpoly.PRIMES) + 1]


Z_E = complex(1.0, 1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_matches_the_reference_on_the_campaign_matrices(seed):
    matrices = hs.weyl_random_matrices(seed)
    got = charpoly.polynomials(np.array(matrices), Z_E)
    assert got == [reference_polynomials(m, Z_E) for m in matrices]


def test_kernel_matches_the_reference_on_degenerate_matrices():
    rng = np.random.default_rng(3)
    upper = np.triu(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    cases = []
    for pos in range(6):
        tri = upper.copy()
        tri[pos, pos] = Z_E                 # a zero singular value and distance
        cases.append(tri)
    cases += [Z_E * np.eye(4) + np.diag(np.ones(3), 1),             # Jordan at z_e
              (Z_E + 0.5) * np.eye(4) + np.diag(np.ones(3), 1),     # Jordan off z_e
              np.diag([1.0 + 1j, -2.0, 0.5j, 0.5j, 3.0])]          # repeated root
    for m in cases:
        assert charpoly.polynomials(m[None], Z_E) == [reference_polynomials(m, Z_E)]


def test_kernel_extends_the_prime_table_on_a_wide_dynamic_range():
    # entries from 1e-300 to 1e300: dyadic shifts of some 2,000 bits, and
    # coefficients beyond the product of the whole table
    rng = np.random.default_rng(4)
    scale = 10.0 ** rng.uniform(-300, 300, size=(2, 4, 4))
    m = rng.normal(size=(4, 4)) * scale[0] + 1j * rng.normal(size=(4, 4)) * scale[1]
    m[0, 0], m[1, 2] = 1e-300, 1e300
    eig, gram, e = reference_polynomials(m, 0.25)
    assert e > 1000
    widest = max(abs(c).bit_length() for poly in (eig, gram) for pair in poly for c in pair)
    assert widest > 26 * len(charpoly.PRIMES)
    assert charpoly.polynomials(m[None], 0.25) == [(eig, gram, e)]


def test_squarefree_certificate():
    assert charpoly._squarefree_mod_p(_poly_from_roots([1, 2j, -3 + 1j]))
    assert not charpoly._squarefree_mod_p(_poly_from_roots([1, 2j, 2j]))


def test_roots_read_zero_roots_off_the_coefficients():
    found = sorted(charpoly.roots([_poly_from_roots([0, 0, 0, 2 + 1j])], 40)[0],
                   key=lambda t: _dist2(t, 0))
    assert found[:3] == [(0, 0, 0)] * 3
    assert _dist2(found[3], 2, 1) < Fraction(1, 10 ** 90)
    assert charpoly.roots([_poly_from_roots([0, 0])], 40) == [[(0, 0, 0)] * 2]


def test_roots_split_repeated_roots_exactly():
    # (x - 1)^3 (x - i)^2 (x + 2): the certificate fails, the split runs
    roots = [1, 1, 1, 1j, 1j, -2]
    poly = _poly_from_roots(roots)
    assert not charpoly._squarefree_mod_p(poly)
    [found] = charpoly.roots([poly], 40)
    assert len(found) == 6
    for r in set(roots):
        c = complex(r)
        near = [z for z in found
                if _dist2(z, int(c.real), int(c.imag)) < Fraction(1, 10 ** 88)]
        assert len(near) == roots.count(r)


def test_roots_of_a_tight_cluster_are_placed_within_tolerance():
    # y^2 - 2 10^60 y + 10^120 - 2 has the distinct roots 10^60 +- sqrt(2),
    # 1.4e-60 apart relative: their Gerschgorin disks overlap, and the one
    # component of two disks places both within the 1e-45 tolerance
    poly = [(1, 0), (-2 * 10 ** 60, 0), (10 ** 120 - 2, 0)]
    assert charpoly._squarefree_mod_p(poly)
    [found] = charpoly.roots([poly], 40)
    assert len(found) == 2
    for z in found:
        # |z / 10^60 - 1| < 1e-44
        assert _dist2(z, 10 ** 60) < Fraction(10 ** 120, 10 ** 88)


def test_roots_raise_instead_of_returning_unconverged_values(monkeypatch):
    monkeypatch.setattr(charpoly, "MAX_STEPS", 1)
    with pytest.raises(NonConvergence):
        charpoly.roots([_poly_from_roots([3, -1 + 2j, 5j, 7 - 7j])], 40)
