"""Polynomials over GF(2), packed into Python ints.

Bit i of the integer is the coefficient of x^i, so the zero polynomial
is 0, x is 2, and x^6 + x + 1 is 0b1000011 = 0x43.  Addition is XOR and
every nonzero polynomial is already monic (the leading coefficient is a
set bit), so gcd normalization is free.  deg(0) = -1 by convention.
"""

from __future__ import annotations

import functools


def degree(f: int) -> int:
    """Degree of f, with deg(0) = -1."""
    return f.bit_length() - 1


def multiply(f: int, g: int) -> int:
    """Carry-less product f * g."""
    acc = 0
    i = 0
    while g >> i:
        if (g >> i) & 1:
            acc ^= f << i
        i += 1
    return acc


def divmod_(f: int, g: int) -> tuple[int, int]:
    """Quotient and remainder of f by g (g nonzero)."""
    if g == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dg = degree(g)
    quo = 0
    while True:
        shift = degree(f) - dg
        if shift < 0:
            return quo, f
        quo |= 1 << shift
        f ^= g << shift


def mod(f: int, g: int) -> int:
    return divmod_(f, g)[1]


def gcd(f: int, g: int) -> int:
    """Greatest common divisor via the Euclidean algorithm.

    gcd(f, 0) = f and gcd(0, 0) = 0; the result is monic whenever it is
    nonzero (automatic over GF(2)).
    """
    while g:
        f, g = g, mod(f, g)
    return f


def pow_mod(base: int, exp: int, modulus: int) -> int:
    """base^exp reduced mod modulus, by square and multiply."""
    result = 1
    base = mod(base, modulus)
    while exp:
        if exp & 1:
            result = mod(multiply(result, base), modulus)
        base = mod(multiply(base, base), modulus)
        exp >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Irreducibility over GF(2) by the Frobenius/gcd criterion.

    f of degree n is irreducible iff x^(2^n) = x mod f and, for every
    prime p dividing n, gcd(x^(2^(n/p)) - x, f) = 1.  (The brute-force
    trial-division oracle lives in the test suite.)
    """
    n = degree(f)
    if n < 1:
        return False
    if n == 1:
        return True
    x = 2
    if pow_mod(x, 1 << n, f) != x:
        return False
    for p in _prime_factors(n):
        h = pow_mod(x, 1 << (n // p), f) ^ x
        if gcd(h, f) != 1:
            return False
    return True


@functools.cache   # a pure function of m, asked for by every context
def find_irreducible(m: int) -> int:
    """The monic irreducible of degree m least as an integer bit vector."""
    if m < 1:
        raise ValueError(f"no irreducible polynomials of degree {m}")
    for cand in range(1 << m, 1 << (m + 1)):
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducibles exist for every degree >= 1")


def least_factor(f: int) -> int:
    """Smallest nontrivial monic divisor of f, or 0 if f is irreducible.

    Trial division, intended for error diagnostics on small degrees.
    """
    n = degree(f)
    if n < 2:
        return 0
    for d in range(2, 1 << (n // 2 + 1)):
        if mod(f, d) == 0:
            return d
    return 0


def all_ones(n: int) -> int:
    """1 + x + ... + x^(n-1)."""
    return (1 << n) - 1


def pretty(f: int) -> str:
    """Readable form like 'x^6 + x + 1'."""
    if f == 0:
        return "0"
    terms = []
    for i in range(degree(f), -1, -1):
        if (f >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return " + ".join(terms)
