"""Seeded inputs for the workloads. The same seed always gives the same inputs.

The corpus itself is written by `wrice synth --seed`; this module holds its
size and the test signals of the golden-feature check, whose expected
26-vectors are in `reference.json` (written by `make_reference.py`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The default 52/61/51/64 class mix scaled by 1/16 and rounded: 14 files of
# 30 s, which keeps one pipeline pass near 15 s on two cores.
CORPUS_COUNTS = (3, 4, 3, 4)
NOISE_SCALES = "0.5,0.05,0.005"


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def golden_buffer(seed: int, seconds: float = 10.0, sample_rate: int = 22050) -> np.ndarray:
    """A test signal made here, not by wrice: smoothed noise plus three tones."""
    rng = np.random.default_rng([seed, 2])
    n = int(seconds * sample_rate)
    width = int(rng.integers(2, 12))
    noise = np.convolve(rng.standard_normal(n), np.ones(width) / width, mode="same")
    t = np.arange(n) / sample_rate
    tones = sum(rng.uniform(0.05, 0.2) * np.sin(2 * np.pi * rng.uniform(50, 4000) * t
                                                + rng.uniform(0, 2 * np.pi))
                for _ in range(3))
    return 0.2 * noise + tones
