"""Deterministic random streams.

Every random draw in the package comes from a Philox counter-based generator
keyed by explicit integers. There is no global RNG state, so identical keys
always reproduce identical streams. Most draws lead their key with one of the
purpose constants below, so purposes do not alias when user seeds collide.
Weight init does not: ``build_model`` draws layer ``i`` from
``rng_from(seed_init, i)``, so ``seed_init = 103`` gives layer 0 exactly the
stream of the seed-0 partition (``STREAM_PARTITION = 103``).
"""

import math

import numpy as np

# Purpose constants; these namespace the user-supplied seeds per use site.
STREAM_CAP = 102
STREAM_PARTITION = 103
STREAM_SHUFFLE = 104
STREAM_PI = 105
STREAM_SCORE = 106
STREAM_BLOBS = 107
STREAM_TEST_SPLIT = 109
STREAM_CENTERS = 110
STREAM_DIGITS = 111


def rng_from(*keys):
    """Philox generator keyed by the given non-negative integers."""
    entropy = [int(k) for k in keys]
    if not entropy:
        raise ValueError("at least one key is required")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def round_half_up(x):
    """Round to the nearest integer, halves away from zero for positive x."""
    return int(math.floor(x + 0.5))
