"""Seeded inputs of the two verify workloads.

The seed only picks the lambda lists.  Which fields, exponents and
theorems run is fixed, so every seed yields the same record count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import is_prime

DEFAULT_SEED = 1
VERIFY_L = (2, 3, 4, 5)
N_VERIFY_LAMBDAS = 5

# Small rationals n/d; lambda = 0 and -1 are excluded by the curve family.
SMALL_RATIONALS = sorted(
    {Fraction(n, d) for n in range(-6, 7) for d in range(1, 5)} - {Fraction(0), Fraction(-1)}
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


@dataclass(frozen=True)
class VerifySpec:
    """One `hgfq verify` run with every theorem over a range of fields."""

    name: str
    primes: tuple[int, int]
    degrees: tuple[int, ...]
    q_cap: int
    lambdas: tuple[Fraction, ...]

    def argv(self) -> list[str]:
        lo, hi = self.primes
        return [
            "verify",
            "--theorem", "all",
            "--primes", f"{lo}:{hi}",
            "--degrees", ",".join(map(str, self.degrees)),
            "--l", ",".join(map(str, VERIFY_L)),
            "--lambda=" + ",".join(map(str, self.lambdas)),
            "--q-cap", str(self.q_cap),
        ]

    def fields(self) -> list[tuple[int, int]]:
        lo, hi = self.primes
        return [
            (p, e)
            for p in range(max(lo, 3), hi + 1)
            if p % 2 and is_prime(p)
            for e in sorted(set(self.degrees))
            if p**e <= self.q_cap
        ]

    def expected_records(self) -> int:
        """Records the theorem catalog yields on this grid, one count per key."""
        n = len(self.lambdas)
        total = 0
        for p, e in self.fields():
            m = p**e - 1
            orders = [l for l in VERIFY_L if m % l == 0]
            total += n  # ono
            total += len(VERIFY_L) * n  # main
            total += sum(1 if l == 3 else 2 for l in VERIFY_L) * n  # trace
            total += len(VERIFY_L)  # lambda_third
            total += 2  # mccarthy
            total += len(orders)  # 3f2at4
            total += 8 * len(orders)  # specials: four parts, two branches
            total += 2 if e == 1 else 0  # c3
            total += n  # chi4
            total += len(VERIFY_L)  # lcm
            total += sum(3 * n + 1 + (n if l == 3 else 0) for l in orders)  # charsum_lemmas
        return total


def verify_small(seed: int) -> VerifySpec:
    lambdas = tuple(_rng("verify-small", seed).sample(SMALL_RATIONALS, N_VERIFY_LAMBDAS))
    return VerifySpec("verify-small", (5, 60), (1, 2), 5000, lambdas)


def verify_large(seed: int) -> VerifySpec:
    # 9000 = 60 * 150, so every character order in VERIFY_L exists.
    lambdas = tuple(_rng("verify-large", seed).sample(SMALL_RATIONALS, N_VERIFY_LAMBDAS))
    return VerifySpec("verify-large", (9001, 9001), (1,), 10000, lambdas)


VERIFY_SPECS = {"verify-small": verify_small, "verify-large": verify_large}

