"""Deterministic 64-bit RNG with xoshiro256** semantics.

Python's stdlib random module does not guarantee a stable cross-language
stream, so the generator is implemented here from its published update rule
(also reproduced in the README).  State is seeded from a single u64 via
splitmix64, the conventional companion seeder.
"""

from __future__ import annotations

MASK64 = 2**64 - 1


def splitmix64_stream(seed: int):
    """Yield the splitmix64 sequence for a u64 seed."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256**: rotl(s1*5, 7)*9 output, 256-bit state."""

    __slots__ = ("_s",)

    def __init__(self, state: tuple[int, int, int, int]):
        if len(state) != 4 or all(w == 0 for w in state):
            raise ValueError("xoshiro256** state must be four words, not all zero")
        self._s = [w & MASK64 for w in state]

    @classmethod
    def from_seed(cls, seed: int) -> "Xoshiro256StarStar":
        if not 0 <= seed <= MASK64:
            raise ValueError(f"seed must be a u64: {seed}")
        stream = splitmix64_stream(seed)
        return cls((next(stream), next(stream), next(stream), next(stream)))

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & MASK64
        result = (((x << 7) | (x >> 57)) * 9) & MASK64  # rotl(x, 7) * 9: the high bits shifted out are masked off
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = [s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & MASK64]  # s3 = rotl(s3, 45)
        return result

    def next_float(self) -> float:
        """Uniform in [0, 1) from the top 53 bits, the conventional mapping."""
        return (self.next_u64() >> 11) * 2.0**-53
