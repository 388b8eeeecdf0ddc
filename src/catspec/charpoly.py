"""Exact characteristic polynomials and their roots at a requested precision.

A float64 matrix and a float64 shift are dyadic rationals, so
``B = 2**e (A - z I)`` is an exact Gaussian-integer matrix for one common
exponent ``e``.  The characteristic polynomials of ``B`` and of ``Bᴴ B``
come from Berkowitz's division-free recursion in Python ints.  Their roots
come from a float64 Aberth warm start in numpy (no LAPACK routine) and a
Weierstrass (Durand-Kerner) finish in fixed-point Gaussian integers with
``dps + 15`` digits on the smallest root.  Each correction is formed from
the polynomial evaluated exactly, so the stopping test sees the true step
at any precision, and the last sweep certifies by Gerschgorin's theorem
that every root lies within ``10**-(dps + 5)`` relative of its own iterate.

Two exact steps keep the iteration on simple, nonzero roots.  Zero roots
are read off the trailing zero coefficients.  The rest is certified
square-free by a gcd modulo a prime ``p = 1 (mod 4)``; when that fails it
is split exactly over Q(i) into square-free parts whose roots, taken
together, are the roots with their multiplicities.

A Gaussian integer is an ``(re, im)`` pair of ints, a polynomial a list of
coefficients in descending powers, and a matrix a pair of int row lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import NonConvergence

_P = 998244353                      # prime, = 1 (mod 4); 3 generates its units
_I = pow(3, (_P - 1) // 4, _P)      # a square root of -1 modulo _P
MAX_STEPS = 500                     # sweeps allowed in either iteration


def _dot(a, b):
    return sum(map(mul, a, b))


def shifted_dyadic(a, z):
    """``(re, im, e)`` with ``re + i im == 2**e (a - z I)`` exactly."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    z = complex(z)
    ratios = [v.as_integer_ratio() for x in [*a.ravel().tolist(), z]
              for v in (x.real, x.imag)]
    e = max(d.bit_length() - 1 for _, d in ratios)
    ints = [num << (e + 1 - d.bit_length()) for num, d in ratios]
    zr, zi = ints[-2:]
    re = [[ints[2 * (i * n + j)] - (zr if i == j else 0) for j in range(n)]
          for i in range(n)]
    im = [[ints[2 * (i * n + j) + 1] - (zi if i == j else 0) for j in range(n)]
          for i in range(n)]
    return re, im, e


def gram(re, im):
    """``Bᴴ B`` of the Gaussian-integer matrix ``B = re + i im``."""
    cr, ci = list(zip(*re)), list(zip(*im))
    n = len(cr)
    return ([[_dot(cr[i], cr[j]) + _dot(ci[i], ci[j]) for j in range(n)]
             for i in range(n)],
            [[_dot(cr[i], ci[j]) - _dot(ci[i], cr[j]) for j in range(n)]
             for i in range(n)])


def berkowitz(re, im):
    """``det(x - M)`` of the Gaussian-integer matrix ``M = re + i im``.

    Leading block ``k + 1`` is ``[[M_k, C], [R, a]]``; its polynomial is
    the Toeplitz product of ``(1, -a, -R C, -R M_k C, ...)`` with that of
    ``M_k`` (Samuelson's formula), so no division occurs.
    """
    poly = [(1, 0)]
    for k in range(len(re)):
        rows_r = [row[:k] for row in re[:k]]
        rows_i = [row[:k] for row in im[:k]]
        rr, ri = re[k][:k], im[k][:k]
        xr, xi = [row[k] for row in re[:k]], [row[k] for row in im[:k]]
        col = [(1, 0), (-re[k][k], -im[k][k])]
        for j in range(k):
            col.append((_dot(ri, xi) - _dot(rr, xr), -_dot(rr, xi) - _dot(ri, xr)))
            if j + 1 < k:
                xr, xi = ([_dot(a, xr) - _dot(b, xi) for a, b in zip(rows_r, rows_i)],
                          [_dot(a, xi) + _dot(b, xr) for a, b in zip(rows_r, rows_i)])
        poly = [(sum(col[t - i][0] * poly[i][0] - col[t - i][1] * poly[i][1]
                     for i in range(min(t, k) + 1)),
                 sum(col[t - i][0] * poly[i][1] + col[t - i][1] * poly[i][0]
                     for i in range(min(t, k) + 1)))
                for t in range(k + 2)]
    return poly


def roots(poly, dps):
    """Every root of the monic Gaussian-integer ``poly``, with multiplicity,
    as an exact triple ``(re, im, frac)`` meaning ``(re + i im) / 2**frac``;
    zero roots are ``(0, 0, 0)``.

    Raises NonConvergence when the Weierstrass finish cannot place every
    root within ``10**-(dps + 5)`` relative of its triple.
    """
    zeros = 0
    while len(poly) > 1 and poly[-1] == (0, 0):
        poly, zeros = poly[:-1], zeros + 1
    parts = []
    if len(poly) > 1:
        parts = [poly] if _squarefree_mod_p(poly) else _squarefree_parts(poly)
    found = [(0, 0, 0)] * zeros
    for part in parts:
        w, frac = _weierstrass(part, dps)
        found += [(a, b, frac) for a, b in w]
    return found


# -- square-free certificate and split ----------------------------------------

def _deriv(f):
    n = len(f) - 1
    return [(a * k, b * k) for (a, b), k in zip(f, range(n, 0, -1))]


def _squarefree_mod_p(f):
    """True when gcd(f, f') is constant modulo the prime ideal (_P, i - _I).
    A repeated factor of the monic f can be taken monic over Z[i] (Gauss's
    lemma), so it would survive that reduction."""
    def rem(a, b):
        inv = pow(b[0], -1, _P)
        a = list(a)
        while len(a) >= len(b):
            q = a[0] * inv % _P
            a = [(x - q * y) % _P for x, y in zip(a[1:], b[1:])] + a[len(b):]
            while a and a[0] == 0:
                a.pop(0)
        return a

    a = [(x + y * _I) % _P for x, y in f]
    b = [(x + y * _I) % _P for x, y in _deriv(f)]
    while b:
        a, b = b, rem(a, b)
    return len(a) == 1


def _q_monic(f):
    """``f / f[0]`` over Q(i); coefficients are pairs of Fractions."""
    a, b = f[0]
    n = a * a + b * b
    ia, ib = a / n, -b / n
    return [(x * ia - y * ib, x * ib + y * ia) for x, y in f]


def _q_divmod(f, g):
    """Quotient and remainder of f by the monic g over Q(i)."""
    f, quot = list(f), []
    while len(f) >= len(g):
        qa, qb = f[0]
        quot.append((qa, qb))
        f = [(x - qa * u + qb * v, y - qa * v - qb * u)
             for (x, y), (u, v) in zip(f[1:], g[1:])] + f[len(g):]
    while f and f[0] == (0, 0):
        f.pop(0)
    return quot, f


def _squarefree_parts(f):
    """Square-free polynomials whose roots together are those of ``f`` with
    multiplicity: ``g_k = gcd(g_{k-1}, g'_{k-1})`` and ``g_{k-1} / g_k``."""
    g = [(Fraction(a), Fraction(b)) for a, b in f]
    parts = []
    while len(g) > 1:
        a, b = g, _q_monic(_deriv(g))
        while b:
            a, b = b, _q_divmod(a, b)[1]
            b = _q_monic(b) if b else b
        parts.append(_q_divmod(g, a)[0])
        g = a
    ints = []
    for h in parts:
        den = math.lcm(*(x.denominator for c in h for x in c))
        ints.append([(int(a * den), int(b * den)) for a, b in h])
    return ints


# -- root iteration -------------------------------------------------------------

def _ldexp(v, t):
    """``v * 2**t`` as a float for an int v of any size."""
    drop = max(v.bit_length() - 64, 0)
    return math.ldexp(float(v >> drop), t + drop)


def _warm_start(f):
    """``(s, y)``: float64 Aberth roots y of ``f(2**s y)``, with s chosen so
    that no scaled coefficient exceeds the leading one in modulus."""
    n = len(f) - 1
    bits = [max(abs(a).bit_length(), abs(b).bit_length()) for a, b in f]
    s = max(-((bits[0] - bits[k]) // k) for k in range(1, n + 1))
    coef = np.array([complex(_ldexp(a, -bits[0] - s * k), _ldexp(b, -bits[0] - s * k))
                     for k, (a, b) in enumerate(f)])
    coef /= coef[0]
    dcoef = coef[:-1] * np.arange(n, 0, -1)
    radius = abs(coef[-1]) ** (1.0 / n) or 1.0
    y = radius * np.exp(2j * np.pi * (np.arange(n) + 0.25) / n)
    last = np.inf
    with np.errstate(all="ignore"):
        for _ in range(MAX_STEPS):
            ratio = np.polyval(coef, y) / np.polyval(dcoef, y)
            diff = y[:, None] - y[None, :]
            np.fill_diagonal(diff, np.inf)
            step = ratio / (1.0 - ratio * np.sum(1.0 / diff, axis=1))
            if not np.all(np.isfinite(step)):
                break
            y = y - step
            # converged to the float64 noise floor once the steps stop shrinking
            size = np.max(np.abs(step) / np.abs(y))
            if size == 0.0 or (size < 1e-6 and size > 0.5 * last):
                break
            last = size
    return s, y


def _fixed(x, t):
    """``floor(x * 2**t)`` for a float x and any int t."""
    num, den = float(x).as_integer_ratio()
    return (num << t) // den if t >= 0 else num // (den << -t)


def _certified(w, radii, tol):
    """Whether every root lies within ``|w_i| / tol`` of its own iterate w_i.

    A connected component of m Gerschgorin disks holds m roots, each within
    twice the component's summed radii of any of its centres."""
    mods = [math.isqrt(a * a + b * b) for a, b in w]      # <= |w_i|
    if any(2 * r * tol > m for r, m in zip(radii, mods)):
        return False
    comp = list(range(len(w)))

    def find(i):
        while comp[i] != i:
            i = comp[i]
        return i

    for i, (ar, ai) in enumerate(w):
        for j, (br, bi) in enumerate(w[:i]):
            if (ar - br) ** 2 + (ai - bi) ** 2 <= (radii[i] + radii[j]) ** 2:
                comp[find(i)] = find(j)
    spread = [0] * len(w)
    for i, r in enumerate(radii):
        spread[find(i)] += 2 * r
    return all(spread[find(i)] * tol <= m for i, m in enumerate(mods))


def _weierstrass(f, dps):
    """``(w, frac)``: the roots ``w_i / 2**frac`` of the square-free ``f``
    (nonzero constant term), w Gaussian integers.

    Durand-Kerner sweeps from the float64 warm start, in fixed point with
    ``dps + 15`` digits on the smallest root (Fujiwara's bound).  After the
    sweep with corrections ``W_i`` the roots of f are the eigenvalues of
    ``diag(w) - W 1ᵀ``, so they lie in the Gerschgorin disks about the new
    iterates ``w_i - W_i`` of radius ``(n - 1) |W_i|``, widened by the
    rounding of W.  The iteration ends when those disks place every root
    within ``10**-(dps + 5)`` relative of its own iterate.
    """
    n = len(f) - 1
    bits = [max(abs(a).bit_length(), abs(b).bit_length()) for a, b in f]
    low = 2 + max(-((bits[n] - 1 - bits[n - k]) // k) for k in range(1, n + 1))
    frac = max(0, math.ceil((dps + 15) * math.log2(10)) + low)
    shifted = [(a << frac * k, b << frac * k) for k, (a, b) in enumerate(f)]
    tol = 10 ** (dps + 5)
    s, warm = _warm_start(f)
    w = [(_fixed(y.real, s + frac), _fixed(y.imag, s + frac)) for y in warm]
    for _ in range(MAX_STEPS):
        steps = []
        for i, (xr, xi) in enumerate(w):
            vr, vi = shifted[0]            # 2**(frac n) f(w_i / 2**frac), by Horner
            for cr, ci in shifted[1:]:
                vr, vi = vr * xr - vi * xi + cr, vr * xi + vi * xr + ci
            dr, di = f[0]                  # lead * prod_j (w_i - w_j)
            for j, (yr, yi) in enumerate(w):
                if j != i:
                    dr, di = dr * (xr - yr) - di * (xi - yi), dr * (xi - yi) + di * (xr - yr)
            norm = dr * dr + di * di
            if not norm:
                raise NonConvergence("two Weierstrass iterates coincide")
            # W_i = v / d in units of 2**-frac, rounded to the nearest
            steps.append(((2 * (vr * dr + vi * di) + norm) // (2 * norm),
                          (2 * (vi * dr - vr * di) + norm) // (2 * norm)))
        w = [(xr - ur, xi - ui) for (xr, xi), (ur, ui) in zip(w, steps)]
        radii = [(n - 1) * (math.isqrt(a * a + b * b) + 2) + 1 for a, b in steps]
        if _certified(w, radii, tol):
            return w, frac
    raise NonConvergence(f"Weierstrass iteration did not reach 1e-{dps + 5} "
                         f"in {MAX_STEPS} sweeps")
