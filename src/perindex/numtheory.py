"""Exact integer arithmetic underlying every divisibility bound in the package.

Primality and factorization, the r-primary part of an integer (a gcd, so
support checks never factor), base-p carry counts, and the two
binomial-coefficient functions everything else consumes: ``m_closed`` (the
gcd of an initial segment of a Pascal-triangle row, in closed form) and
``n_func`` (the divisor that gcd forces on any admissible degree).  All
arithmetic is arbitrary-precision; there is no overflow regime.

Primality is deterministic Miller-Rabin, exact below about 3.3 * 10**24, and
factorization splits cofactors with Pollard-Brent rho under an iteration
budget that shrinks with the cofactor's size, so rho gives up in about the
same time at any size, but the primality test run first on each cofactor
costs more the larger it is: seconds at 14,000 bits.  Both refuse with
ValueError what they cannot settle exactly; neither returns a probable answer.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

__all__ = [
    "Factorization",
    "factorize",
    "is_prime",
    "integer_log",
    "kummer_carries",
    "m_closed",
    "n_func",
]


# The primes up to 41.  Miller-Rabin to these 13 bases has no strong
# pseudoprime below _MR_EXACT_BELOW (Sorenson-Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017), so there its verdict is a proof.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

# Iterations of x -> x*x + c that factorize may spend on one cofactor of up
# to _RHO_FULL_BITS bits, over all its restarts, before refusing it.  Enough
# for a cofactor whose smallest prime factor has up to about 40 bits.
# Spending it all takes a few seconds; larger cofactors get less (_rho_budget).
_RHO_BUDGET = 1 << 22
_RHO_FULL_BITS = 128
# Products (x - y) mod n accumulated per gcd in Brent's rho.
_RHO_BATCH = 128
# Factorizations factorize keeps, least recently used first out.  A caller
# that meets fresh large periods all day must not grow the cache without
# bound; 1,024 factorizations of 11-digit integers hold about 0.5 MB.
_FACTORIZE_CACHE_SIZE = 1024


def is_prime(p: int) -> bool:
    """Exact primality test for any integer, with no probabilistic verdict.

    Trial division by the primes up to 41 settles every p < 43**2.  Above
    that, the strong (Miller-Rabin) test to the bases 2, 3, ..., 41 runs:
    a witness proves p composite at any size, and the absence of one proves
    p prime below 3,317,044,064,679,887,385,961,981.  At or above that bound
    a p with no witness cannot be certified, and ValueError is raised rather
    than a guess returned.
    """
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p < _MR_EXACT_BELOW:
        return True
    raise ValueError(
        f"cannot certify {p} as prime: it is a strong probable prime to every base "
        f"up to 41, which proves primality only below {_MR_EXACT_BELOW}"
    )


class Factorization(namedtuple("Factorization", "pairs")):
    """A positive integer as (prime, exponent) pairs with strictly increasing
    primes; the empty tuple represents 1."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        last = 1
        for p, e in pairs:
            if p <= last:
                raise ValueError(f"primes must be strictly increasing, got {p} after {last}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e < 1:
                raise ValueError(f"exponent of prime {p} must be >= 1, got {e}")
            last = p
        return tuple.__new__(cls, (pairs,))

    @classmethod
    def _trusted(cls, pairs: tuple[tuple[int, int], ...]) -> "Factorization":
        """Wrap pairs whose primes factorize has already certified, without
        testing them again."""
        return tuple.__new__(cls, (pairs,))


def _rho_budget(n: int) -> int:
    """Iterations rho may spend on the cofactor n: _RHO_BUDGET up to
    _RHO_FULL_BITS bits, then that scaled by (_RHO_FULL_BITS / bits)**2.

    One iteration squares and reduces a number of n's size, which costs time
    growing about quadratically with its bit length, so the time to refuse a
    hard cofactor stays near that of a 128-bit one, whatever its size.
    """
    bits = n.bit_length()
    if bits <= _RHO_FULL_BITS:
        return _RHO_BUDGET
    return _RHO_BUDGET * _RHO_FULL_BITS**2 // bits**2


def _rho_factor(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor up to 41.

    Brent's variant of Pollard's rho ("An improved Monte Carlo factorization
    algorithm", BIT 1980) with the gcd taken over batches of products.  The
    constants c = 1, 2, ... and the start 2 are fixed, so the result and the
    time taken are the same on every run.  Raises ValueError once
    _rho_budget(n) iterations are spent without a split.
    """
    budget = total = _rho_budget(n)
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:
                raise ValueError(
                    f"cannot factor {n}: Pollard rho found no factor within "
                    f"{total} iterations"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            budget -= 2 * r
            r *= 2
        if g == n:  # the batch overshot: step back one product at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, with no float.

    Newton's step x -> ((k - 1) x + n // x**(k - 1)) // k, started above the
    root, decreases until it reaches the root and then stops.  The start is
    the root of n with its last k*h bits cut, plus one, shifted up h bits,
    where h is half the root's bit length: that lies above the root and
    agrees with it in about h bits, so a few steps suffice, where a start at
    a power of two would cost about k steps.
    """
    size = -(-n.bit_length() // k)  # the root has at most this many bits
    if size <= 1:
        x = 2
    else:
        h = size // 2
        x = (_iroot(n >> (k * h), k) + 1) << h
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(b, k) with b**k == n and k prime, or None when n is no such power.

    n has no prime factor up to 41, so a base is at least 43 and only the
    primes k up to log_43(n) are tried, told apart by is_prime.
    """
    for k in range(2, integer_log(43, n) + 1):
        if is_prime(k):
            b = _iroot(n, k)
            if b**k == n:
                return b, k
    return None


@lru_cache(maxsize=_FACTORIZE_CACHE_SIZE)
def factorize(a: int) -> Factorization:
    """Factor a >= 1 exactly.

    The primes up to 41 are divided out first.  Each remaining cofactor is
    either certified prime by is_prime, or found to be an exact k-th power
    b**k and replaced by k copies of b, or split by Pollard-Brent rho, and
    the parts are treated the same way until all are prime.  A certified
    prime is divided out of every cofactor still pending, so a prime power
    p**k costs a few splits and tests, not k of each.  Raises
    ValueError, and never returns a guess, when a cofactor can be neither
    certified nor split: a strong probable prime at or above is_prime's
    exact bound, or a composite that rho does not split within its budget.
    """
    if a < 1:
        raise ValueError(f"factorize requires a >= 1, got {a}")
    exponents: dict[int, int] = {}
    n = a
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            exponents[p] = exponents.get(p, 0) + 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if not is_prime(m):
            power = _perfect_power(m)
            if power:
                base, k = power
                pending += [base] * k
            else:
                d = _rho_factor(m)
                pending += [m // d, d]  # d first: a prime it yields is stripped from m // d
            continue
        e, rest = 1, []
        for c in pending:
            while c % m == 0:
                c //= m
                e += 1
            if c > 1:
                rest.append(c)
        exponents[m], pending = e, rest
    return Factorization._trusted(tuple(sorted(exponents.items())))


def r_primary_part(a: int, r: int) -> int:
    """The largest divisor of a >= 1 whose primes all divide r >= 1, exact at
    any size: gcd(a, r**e) for e = a.bit_length(), as a has fewer than e prime
    factors.  It is a exactly when every prime dividing a divides r."""
    if a < 1 or r < 1:
        raise ValueError(f"r_primary_part requires a, r >= 1, got {a}, {r}")
    return math.gcd(a, pow(r, a.bit_length(), a))


def integer_log(p: int, s: int) -> int:
    """Largest e >= 0 with p**e <= s, by repeated integer division.

    Never touches floating point, so exact powers of p land on the right side.
    """
    if p < 2:
        raise ValueError(f"integer_log requires base >= 2, got {p}")
    if s < 1:
        raise ValueError(f"integer_log requires s >= 1, got {s}")
    e = 0
    q = s
    while q >= p:
        q //= p
        e += 1
    return e


def kummer_carries(p: int, a: int, b: int) -> int:
    """Number of carries when adding a and b in base p.

    Equals the p-adic valuation of the binomial coefficient C(a+b, b).
    """
    if not is_prime(p):
        raise ValueError(f"kummer_carries requires p prime, got {p}")
    if a < 0 or b < 0:
        raise ValueError(f"kummer_carries requires a, b >= 0, got {a}, {b}")
    carries = 0
    carry = 0
    while a or b or carry:
        carry = 1 if (a % p) + (b % p) + carry >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def _check_positive_pair(a: int, s: int, first: str) -> None:
    if a < 1:
        raise ValueError(f"{first} must be >= 1, got {a}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s} (the gcd over an empty range is undefined)")


def m_closed(a: int, s: int) -> int:
    """gcd of the binomial coefficients C(a,1), ..., C(a,s) in closed form:
    prod p**max(n - [log_p s], 0) over a = prod p**n, that is, a over its gcd
    with n_func(a, s) / a = prod p**[log_p s].  Every p**n dividing a is at
    most a, so from s = a on the gcd of the binomials is 1: s is capped at a."""
    _check_positive_pair(a, s, "a")
    return a // math.gcd(a, n_func(a, min(s, a)) // a)


def n_func(b: int, s: int) -> int:
    """prod p**(n + [log_p s]) over the factorization b = prod p**n.

    b divides m_closed(a, s) exactly when n_func(b, s) divides a: both say
    n + [log_p s] <= v_p(a) wherever p**n exactly divides b."""
    _check_positive_pair(b, s, "b")
    out = 1
    for p, n in factorize(b).pairs:
        out *= p ** (n + integer_log(p, s))
    return out
