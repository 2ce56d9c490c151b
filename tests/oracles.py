"""Independent reference implementations the tests use as oracles.

Everything here is deliberately written from the underlying definitions
(mpmath for the irrational functions, integer/Fraction arithmetic for the
rationals, FIPS 180-4 for SHA-256) rather than by calling the package, so
agreement between the two is evidence and not tautology.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import mpmath

NANO = 10**9

mpmath.mp.dps = 60


def half_even_units(x: mpmath.mpf) -> int:
    """Round a high-precision value (token scale) to integer 1e-9 units, ties to even."""
    scaled = x * NANO
    floor = int(mpmath.floor(scaled))
    frac = scaled - floor
    if frac > mpmath.mpf("0.5"):
        return floor + 1
    if frac < mpmath.mpf("0.5"):
        return floor
    return floor if floor % 2 == 0 else floor + 1


def sqrt_units(token_units: int) -> int:
    """Quadratic-power oracle: units of sqrt(u / 1e9) tokens = round(sqrt(u * 1e9))."""
    root = mpmath.sqrt(mpmath.mpf(token_units) * NANO)
    floor = int(mpmath.floor(root))
    # mpf comparison suffices away from ties; perfect squares are exact anyway.
    frac = root - floor
    if frac > mpmath.mpf("0.5"):
        return floor + 1
    if frac < mpmath.mpf("0.5"):
        return floor
    return floor if floor % 2 == 0 else floor + 1


def conviction_units(token_units: int, alpha: str, dt: int) -> int:
    """Conviction oracle: round(u * (1 - e^(-alpha*dt))) in 1e-9 units."""
    if dt == 0:
        return 0
    factor = 1 - mpmath.e ** (-mpmath.mpf(alpha) * dt)
    return half_even_units(mpmath.mpf(token_units) / NANO * factor)


def ratio_units(num: int, den: int) -> int:
    """Half-even rounding of num/den at 9 fractional digits, exact in integers."""
    q, r = divmod(num * NANO, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return q


def gini_pairwise_units(units: list[int]) -> int:
    """O(n^2) pairwise-difference Gini, exact (Fraction) then half-even at 9 digits."""
    n = len(units)
    total = sum(units)
    num = sum(abs(a - b) for a in units for b in units)
    g = Fraction(num, 2 * n * total)
    return ratio_units(g.numerator, g.denominator)


def controlling_set_exhaustive(units: list[int]) -> int:
    """Smallest subset whose sum strictly exceeds half the total, by full search."""
    total = sum(units)
    n = len(units)
    best = n
    for mask in range(1, 1 << n):
        acc = sum(u for k, u in enumerate(units) if mask >> k & 1)
        if 2 * acc > total:
            best = min(best, mask.bit_count())
    return best


# ---------------------------------------------------------------------------
# Canonical JSON from its definition: sorted keys, compact separators, ASCII
# escapes, decimal quantities as strings with exactly nine fractional digits.
# Fixed-point values are recognised by their integer `units`, not by class.


def canonical_json_ref(value) -> str:
    return json.dumps(_canonical_ref(value), sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _nine_digits(units: int) -> str:
    if not 0 <= units <= 2**63 - 1:
        raise ValueError(f"fixed-point units out of range: {units}")
    return f"{units // NANO}.{units % NANO:09d}"


def _canonical_ref(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, float):
        raise ValueError("float")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, Decimal):
        scaled = Fraction(value) * NANO
        if scaled.denominator != 1:
            raise ValueError(f"more than nine fractional digits: {value}")
        return _nine_digits(scaled.numerator)
    if isinstance(getattr(value, "units", None), int):
        return _nine_digits(value.units)
    if isinstance(value, (list, tuple)):
        return [_canonical_ref(v) for v in value]
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise ValueError("non-string key")
        return {str(k): _canonical_ref(v) for k, v in value.items()}
    raise ValueError(f"unsupported type {type(value).__name__}")


# ---------------------------------------------------------------------------
# SHA-256 from the FIPS 180-4 definition, used to cross-check hashlib-based
# ledger hashes with an implementation sharing no code with the package.

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_M32 = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _M32


def sha256_pure(message: bytes) -> str:
    """SHA-256 digest (hex) computed from the FIPS 180-4 standard, no hashlib."""
    length = len(message) * 8
    message = message + b"\x80"
    while len(message) % 64 != 56:
        message += b"\x00"
    message += length.to_bytes(8, "big")

    h = list(_H0)
    for off in range(0, len(message), 64):
        block = message[off : off + 64]
        w = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 64, 4)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M32)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + big_s1 + ch + _K[t] + w[t]) & _M32
            big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (big_s0 + maj) & _M32
            hh, g, f, e, d, c, b, a = g, f, e, (d + t1) & _M32, c, b, a, (t1 + t2) & _M32
        h = [(x + y) & _M32 for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return "".join(f"{x:08x}" for x in h)


# ---------------------------------------------------------------------------
# Companion RNG implementations transcribed separately from the published
# reference code, for stream-equality checks against the package's generator.

_M64 = 2**64 - 1


def splitmix64_ref(seed: int, count: int) -> list[int]:
    out = []
    x = seed & _M64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
        out.append(z ^ (z >> 31))
    return out


def xoshiro_ref(state: tuple[int, int, int, int], count: int) -> list[int]:
    def rotl(x: int, k: int) -> int:
        return ((x << k) & _M64) | (x >> (64 - k))

    s = list(state)
    out = []
    for _ in range(count):
        out.append((rotl((s[1] * 5) & _M64, 7) * 9) & _M64)
        t = (s[1] << 17) & _M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out
