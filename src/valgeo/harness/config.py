"""Fuzzing configuration and counterexample reports."""

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


@dataclass
class CounterexampleReport:
    identity: str
    trial: int
    inputs: dict
    lhs: str
    rhs: str
    delta: str
    shrunk_inputs: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "trial": self.trial,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "delta": self.delta,
        }
        if self.shrunk_inputs is not None:
            out["shrunk_inputs"] = self.shrunk_inputs
        return out
