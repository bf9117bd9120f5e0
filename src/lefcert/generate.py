"""Seeded PSD instance generator for the property suites.

The PRNG is SplitMix64 (Steele, Lea & Flood 2014): state advances by
adding 0x9E3779B97F4A7C15 and the output is the finalizer
z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31.  Draws below a bound use plain
remainder.  The transition is pinned here so other implementations can
replicate instances bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import HermitianMatrix, InternalCheckError, mat_rank
from .rationals import GaussianRational, as_int

__all__ = ["SplitMix64", "GeneratorSpec", "generate_psd"]

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit PRNG with a published state transition."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class GeneratorSpec:
    """Seeded request for a family of PSD matrices with exact target ranks."""

    seed: int
    n: int
    rank_profile: tuple
    entry_bound: int = 2

    def __post_init__(self):
        for what in ("seed", "n", "entry_bound"):
            as_int(getattr(self, what), what)
        object.__setattr__(self, "rank_profile",
                           tuple(as_int(r, "rank_profile entry") for r in self.rank_profile))
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.entry_bound <= 0:
            raise ValueError("entry_bound must be positive")
        if any(not 0 <= r <= self.n for r in self.rank_profile):
            raise ValueError("target ranks must lie in [0, n]")


def _draw_generator_matrix(rng: SplitMix64, n: int, r: int, bound: int):
    return [
        [
            GaussianRational(rng.integer(-bound, bound), rng.integer(-bound, bound))
            for _ in range(r)
        ]
        for _ in range(n)
    ]


def generate_psd(spec: GeneratorSpec):
    """PSD matrices as B B* with B of full column rank, deterministic per seed."""
    rng = SplitMix64(spec.seed)
    out = []
    for r in spec.rank_profile:
        if r == 0:
            out.append(HermitianMatrix.zero(spec.n))
            continue
        for _ in range(1000):
            b = _draw_generator_matrix(rng, spec.n, r, spec.entry_bound)
            if mat_rank(b) == r:
                break
        else:
            raise RuntimeError("failed to draw a full-column-rank generator in 1000 tries")
        mat = HermitianMatrix.from_generator(b)
        if not mat.is_psd() or mat.rank() != r:
            raise InternalCheckError("generator soundness violated")
        out.append(mat)
    return out
