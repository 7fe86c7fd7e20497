"""Fuzzing configuration."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    n_range: tuple[int, int] = (3, 3)
    vertex_count_range: tuple[int, int] = (4, 9)
    coordinate_denominator_bound: int = 4
    trials: int = 100
    tolerance_float: float = 1e-8

    def trial_rng(self, index: int) -> random.Random:
        # string seeding hashes through sha512: stable across processes
        return random.Random(f"{self.seed}:{index}")

