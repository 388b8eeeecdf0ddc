"""Exact characteristic polynomials and their roots at a requested precision.

A float64 matrix and a float64 shift are dyadic rationals, so
``B = 2**e (A - z I)`` is an exact Gaussian-integer matrix for one least
exponent ``e >= 0`` per matrix.  ``polynomials`` returns the characteristic
polynomials of ``B`` and of ``Bᴴ B`` from int64 arithmetic alone.  Each
prime ``p = 1 (mod 4)`` of ``PRIMES`` has a square root ``I`` of -1, so
``Z[i] / p`` splits into two copies of ``Z / p``: the lanes ``i -> +I`` and
``i -> -I``.  Both lanes hold the residues of ``B``; lane ``+`` of the
Gram matrix is ``φ-(B)ᵀ φ+(B)``, since conjugation swaps the lanes.
Berkowitz's division-free recursion runs on all lanes of a chunk of
matrices at once, and a symmetric Chinese-remainder lift recovers each
coefficient from as many primes as its Hadamard bound needs.  Residues
stay below ``2**26``, so every sum of up to 2047 products fits in int64.

Roots come from a float64 Aberth warm start in numpy (no LAPACK routine),
one iteration for all polynomials of a call, and a Weierstrass
(Durand-Kerner) finish in fixed-point Gaussian integers with ``dps + 15``
digits on the smallest root.  Each correction is formed from the
polynomial evaluated exactly, so the stopping test sees the true step at
any precision, and the last sweep certifies by Gerschgorin's theorem that
every root lies within ``10**-(dps + 5)`` relative of its own iterate.

Two exact steps keep the iteration on simple, nonzero roots.  Zero roots
are read off the trailing zero coefficients.  The rest is certified
square-free by a gcd modulo the first prime of ``PRIMES``; when that fails
it is split exactly over Q(i) into square-free parts whose roots, taken
together, are the roots with their multiplicities.

A Gaussian integer is an ``(re, im)`` pair of ints and a polynomial a list
of coefficients in descending powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import NonConvergence

#: (p, I): primes p = 1 (mod 4) below 2**26, largest first, with I**2 = -1 (mod p)
PRIMES = (
    (67108837, 11846621), (67108777, 18386125), (67108757, 2509185), (67108753, 6518943),
    (67108729, 2569636), (67108721, 3461269), (67108709, 22468063), (67108693, 15633171),
    (67108669, 10769374), (67108661, 11716003), (67108649, 30297340), (67108633, 11342141),
    (67108597, 10987359), (67108529, 18438450), (67108493, 19451905), (67108453, 24554656),
    (67108373, 13101378), (67108369, 21579914), (67108313, 17455483), (67108289, 2410624),
    (67108201, 22632239), (67108177, 16916443), (67108109, 28977499), (67108081, 18428335),
    (67108049, 4790281), (67108037, 8685634), (67108033, 3365376), (67108009, 1212685),
    (67107977, 12698145), (67107941, 1704574), (67107913, 3609013), (67107881, 24067330),
    (67107809, 5115790), (67107797, 31527719), (67107793, 3020703), (67107773, 23924443),
    (67107757, 4546707), (67107749, 17878754), (67107737, 9418833), (67107713, 25691075),
    (67107697, 1971874), (67107673, 23622378), (67107641, 5981351), (67107617, 27393878),
    (67107569, 7992469), (67107553, 6208989), (67107541, 30203904), (67107533, 18150693),
    (67107497, 15813773), (67107473, 7618437), (67107461, 32933291), (67107457, 20479610),
    (67107389, 21683082), (67107349, 23834860), (67107317, 6041790), (67107301, 32022701),
    (67107289, 13446251), (67107253, 854239), (67107241, 30067649), (67107217, 5711499),
    (67107149, 13374257), (67107101, 26046870), (67107097, 17457247), (67106989, 9235747),
    (67106833, 262268), (67106821, 5184687), (67106813, 15324653), (67106797, 32646863),
    (67106761, 5975385), (67106749, 11561702), (67106737, 11028661), (67106717, 10518213),
)
_P, _I = PRIMES[0]                  # the square-free certificate's prime ideal
MAX_STEPS = 500                     # sweeps allowed in either iteration
CHUNK_ENTRIES = 1 << 16             # int64 entries of one chunk's lane stack


def _lane_primes():
    """``(p, I)`` from ``PRIMES``, then primes p = 1 (mod 4) below its last."""
    yield from PRIMES
    p = PRIMES[-1][0]
    while True:
        p -= 4
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            g = 2
            while pow(g, (p - 1) // 2, p) != p - 1:   # a non-residue
                g += 1
            yield p, pow(g, (p - 1) // 4, p)


def _primes(bound):
    """The fewest leading lane primes whose product P has
    ``(P - 1) / 2 >= bound``, and their I, as int64 arrays."""
    table, prod = [], 1
    for pair in _lane_primes():
        if (prod - 1) // 2 >= bound:
            break
        table.append(pair)
        prod *= pair[0]
    return np.array(table, dtype=np.int64).T


def _dyadic(x):
    """``(o, d)`` with ``x == o * 2**-d`` elementwise, o an odd int64 (0 for
    x == 0) and d the least such exponent (0 for x == 0)."""
    mant, ex = np.frexp(x)
    m = (mant * 2.0 ** 53).astype(np.int64)
    tz = np.frexp((m & -m).astype(float))[1] - 1      # trailing zero bits
    tz[m == 0] = 0
    return m >> tz, np.where(m == 0, 0, 53 - ex - tz)


def _pow2(s, p):
    """``2**s mod p`` for the exponents s (k,) and the moduli p (K,): (k, K)."""
    out = np.ones((s.size, p.size), dtype=np.int64)
    base = np.full(p.size, 2, dtype=np.int64)
    for bit in range(int(s.max()).bit_length()):
        sel = (s >> bit) & 1 == 1
        out[sel] = out[sel] * base % p
        base = base * base % p
    return out


def polynomials(a, z):
    """``(det(x - B), det(x - Bᴴ B), e)`` for each matrix A of the stack
    ``a`` (m, n, n), with ``B = 2**e (A - z I)`` for the least ``e >= 0`` that
    makes it a Gaussian-integer matrix; exact, from int64 residues.

    The coefficient of x**(n - k) is ``(-1)**k`` times a sum of C(n, k)
    principal k-minors.  By Hadamard's inequality a k-minor of B is at most
    ``c**k`` in modulus, c the largest column norm of B, and a principal
    k-minor of the Gram matrix ``Bᴴ B`` at most ``c**(2 k)``.  Each lift uses
    as many primes as those bounds need.
    """
    a = np.asarray(a, dtype=complex)
    m, n = a.shape[:2]
    if n >= 2048:
        raise ValueError("int64 residue sums hold at most 2047 products")
    parts = np.concatenate([a.reshape(m, n * n), np.full((m, 1), complex(z))], axis=1)
    o, d = _dyadic(np.stack([parts.real, parts.imag], axis=-1))      # (m, n*n + 1, 2)
    e = np.maximum(d.max(axis=(1, 2)), 0)
    shift = e[:, None, None] - d
    # the largest squared column norm c**2 of each B, exactly in Python ints
    ints = o.astype(object) << shift.astype(object)
    re, im = ints[:, :-1, 0].reshape(m, n, n), ints[:, :-1, 1].reshape(m, n, n)
    re[:, range(n), range(n)] -= ints[:, -1:, 0]
    im[:, range(n), range(n)] -= ints[:, -1:, 1]
    c2 = max((re * re + im * im).sum(axis=1).max(axis=1).tolist())
    p, i = _primes(max(math.comb(n, k) * c2 ** k for k in range(n + 1)))
    k_eig = _primes(math.isqrt(max(math.comb(n, k) ** 2 * c2 ** k
                                   for k in range(n + 1))) + 1).shape[1]
    step = max(1, CHUNK_ENTRIES // (2 * p.size * n * n))
    out = []
    for lo in range(0, m, step):
        b = _lanes(o[lo:lo + step], shift[lo:lo + step], p, i)
        rows = len(b)
        eig = berkowitz(b[:, :k_eig].reshape(-1, n, n), np.tile(np.repeat(p[:k_eig], 2), rows))
        g = berkowitz(gram(b, p).reshape(-1, n, n), np.tile(p, rows))
        del b
        eig = crt_lift(_gaussian(eig.reshape(rows, k_eig, 2, n + 1), p[:k_eig], i[:k_eig]),
                       p[:k_eig])
        g = crt_lift(np.moveaxis(g.reshape(rows, p.size, n + 1), 1, -1), p)
        out += [([tuple(c) for c in f], [(c, 0) for c in h], int(x))
                for f, h, x in zip(eig.tolist(), g.tolist(), e[lo:lo + step])]
    return out


def _lanes(o, shift, p, i):
    """Residues of every B on every lane, (m, K, 2, n, n): lane 0 maps i to
    +I, lane 1 to -I.  The entries are ``o * 2**shift``, with z last in each
    row of o."""
    m, n = o.shape[0], math.isqrt(o.shape[1] - 1)
    u, inv = np.unique(shift, return_inverse=True)
    r = o[..., None] % p                            # (m, n*n + 1, 2, K)
    r *= _pow2(u, p)[inv.reshape(shift.shape)]
    r %= p
    re, im = np.moveaxis(r, -1, 1).transpose(3, 0, 1, 2)
    im = im * i[:, None] % p[:, None]
    lanes = np.stack([re + im, re - im], axis=2)    # (m, K, 2, n*n + 1)
    del r, re, im
    b = lanes[..., :-1].reshape(m, p.size, 2, n, n)
    b[..., range(n), range(n)] -= lanes[..., -1:]
    b %= p[:, None, None, None]
    return b


def gram(b, p):
    """Residues of ``Bᴴ B`` on lane + from the lanes of B (m, K, 2, n, n):
    conjugation swaps the lanes, so that is ``φ-(B)ᵀ φ+(B)``.  Its
    characteristic polynomial is real, so lane + alone gives it."""
    return np.matmul(b[:, :, 1].swapaxes(-1, -2), b[:, :, 0]) % p[:, None, None]


def berkowitz(m, p):
    """``det(x - M)`` lane by lane: m (L, n, n) int64 residues modulo the
    lane moduli p (L,), coefficients (L, n + 1) in descending powers.

    Leading block ``k + 1`` is ``[[M_k, C], [R, a]]``; its polynomial is
    the Toeplitz product of ``(1, -a, -R C, -R M_k C, ...)`` with that of
    ``M_k`` (Samuelson's formula), so no division occurs.
    """
    lanes, n = m.shape[0], m.shape[-1]
    q = p[:, None]
    poly = np.ones((lanes, 1), dtype=np.int64)
    for k in range(n):
        col = np.zeros((lanes, k + 3), dtype=np.int64)     # the last entry stays 0
        col[:, 0] = 1
        col[:, 1] = -m[:, k, k] % p
        r, x = m[:, k, :k], m[:, :k, k]
        for j in range(k):
            col[:, j + 2] = -np.einsum("li,li->l", r, x) % p
            if j + 1 < k:
                x = np.einsum("lij,lj->li", m[:, :k, :k], x) % q
        lag = np.arange(k + 2)[:, None] - np.arange(k + 1)
        toeplitz = col[:, np.where(lag >= 0, lag, k + 2)]
        poly = np.einsum("lti,li->lt", toeplitz, poly) % q
    return poly


def _gaussian(c, p, i):
    """Residues of the real and imaginary parts from the two lanes of the
    coefficients c (m, K, 2, n + 1), as (m, n + 1, 2, K)."""
    q = p[:, None]
    half = (q + 1) // 2                             # 1/2, and 1/(2I) = -I/2
    re = (c[:, :, 0] + c[:, :, 1]) * half % q
    im = (c[:, :, 0] - c[:, :, 1]) % q * ((q - i[:, None]) * half % q) % q
    return np.moveaxis(np.stack([re, im], axis=-1), 1, -1)


def crt_lift(res, p):
    """The symmetric Chinese-remainder lift of the residues res (..., K)
    modulo the primes p: the ints of modulus below ``P / 2`` (P the product
    of p) that they determine, as an object array of the leading shape."""
    primes = p.tolist()
    big = math.prod(primes)
    weights = [big // q * pow(big // q, -1, q) for q in primes]

    def lift(r):
        x = sum(map(mul, r, weights)) % big
        return x - big if 2 * x > big else x

    flat = [lift(r) for r in res.reshape(-1, len(primes)).tolist()]
    return np.array(flat, dtype=object).reshape(res.shape[:-1])


def roots(polys, dps):
    """Every root of each monic Gaussian-integer polynomial of ``polys``, with
    multiplicity, as exact triples ``(re, im, frac)`` meaning
    ``(re + i im) / 2**frac``; zero roots are ``(0, 0, 0)``.  One float64
    warm start runs for all square-free parts of the call.

    Raises NonConvergence when the Weierstrass finish cannot place every
    root within ``10**-(dps + 5)`` relative of its triple.
    """
    found, parts, owner = [], [], []
    for k, poly in enumerate(polys):
        zeros = 0
        while len(poly) > 1 and poly[-1] == (0, 0):
            poly, zeros = poly[:-1], zeros + 1
        found.append([(0, 0, 0)] * zeros)
        if len(poly) > 1:
            split = [poly] if _squarefree_mod_p(poly) else _squarefree_parts(poly)
            parts += split
            owner += [k] * len(split)
    for k, part, warm in zip(owner, parts, _warm_starts(parts)):
        w, frac = _weierstrass(part, dps, warm)
        found[k] += [(a, b, frac) for a, b in w]
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


def _warm_starts(polys):
    """``(s, y)`` per polynomial f: float64 Aberth roots y of ``f(2**s y)``, with
    s chosen so that no scaled coefficient exceeds the leading one in
    modulus.  The polynomials of one degree iterate together, each until
    its own steps stop shrinking."""
    out = [None] * len(polys)
    by_degree = {}
    for k, f in enumerate(polys):
        by_degree.setdefault(len(f) - 1, []).append(k)
    for n, idx in by_degree.items():
        scales, coef = [], []
        for k in idx:
            f = polys[k]
            bits = [max(abs(a).bit_length(), abs(b).bit_length()) for a, b in f]
            s = max(-((bits[0] - bits[j]) // j) for j in range(1, n + 1))
            scales.append(s)
            coef.append([complex(_ldexp(a, -bits[0] - s * j), _ldexp(b, -bits[0] - s * j))
                         for j, (a, b) in enumerate(f)])
        coef = np.array(coef)
        coef /= coef[:, :1]
        dcoef = coef[:, :-1] * np.arange(n, 0, -1)
        radius = np.abs(coef[:, -1]) ** (1.0 / n)
        radius[radius == 0.0] = 1.0
        y = radius[:, None] * np.exp(2j * np.pi * (np.arange(n) + 0.25) / n)
        last = np.full(len(idx), np.inf)
        live = np.arange(len(idx))
        with np.errstate(all="ignore"):
            for _ in range(MAX_STEPS):
                if not live.size:
                    break
                yl = y[live]
                ratio = _horner(coef[live], yl) / _horner(dcoef[live], yl)
                diff = yl[:, :, None] - yl[:, None, :]
                diff[:, range(n), range(n)] = np.inf
                step = ratio / (1.0 - ratio * np.sum(1.0 / diff, axis=2))
                finite = np.all(np.isfinite(step), axis=1)
                y[live[finite]] -= step[finite]
                # converged to the float64 noise floor once the steps stop shrinking
                size = np.max(np.abs(step) / np.abs(y[live]), axis=1)
                done = ~finite | (size == 0.0) | ((size < 1e-6) & (size > 0.5 * last[live]))
                last[live] = size
                live = live[~done]
        for k, s, row in zip(idx, scales, y):
            out[k] = (s, row)
    return out


def _horner(coef, y):
    """Each row's polynomial (coefficients in descending powers) at its row of y."""
    v = np.repeat(coef[:, :1], y.shape[1], axis=1)
    for c in coef[:, 1:].T:
        v = v * y + c[:, None]
    return v


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


def _weierstrass(f, dps, warm):
    """``(w, frac)``: the roots ``w_i / 2**frac`` of the square-free ``f``
    (nonzero constant term), w Gaussian integers.

    Durand-Kerner sweeps from the float64 warm start ``warm`` of
    ``_warm_starts``, in fixed point with ``dps + 15`` digits on the
    smallest root (Fujiwara's bound).  After the
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
    s, warm = warm
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
