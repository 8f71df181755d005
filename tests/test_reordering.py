"""Reordering is not loss: lossless on/off runs with direct jitter.

Three flows of 40 B packets send in 0.3 s bursts with exponential idle
gaps (mean 0.2 s), so every burst end leaves a receiver's probe NACK
naming a seq the sender has not sent yet.  DC2 holds such a claim and
asks the receiver to confirm it; with jitter on the direct path, later
packets overtake the claimed one, and the receiver answers yes while it
is still in flight.  Nothing is lost, so DC2 must move no recovery
byte: ``run_seed`` raises ``InvariantViolation`` if it does.
"""

import pytest

from caspr.runner import run_seed
from caspr.scenario import validate

BURSTY = {
    "name": "reordering",
    "duration_s": 3.0,
    "cooldown_s": 0.5,
    "seeds": [0],
    "topology": {
        "direct": {"delay_ms": 40.0},
        "access": {"delay_ms": 5.0, "jitter_ms": 0.5},
        "inter_dc": {"delay_ms": 15.0, "jitter_ms": 0.5},
        "recovery": {"delay_ms": 6.0, "jitter_ms": 0.5},
    },
    "flows": {"count": 3, "packet_size": 40, "on_s": 0.3, "off_mean_s": 0.2,
              "stagger_ms": 1.0},
    "coding": {"k_max": 3, "parity_cross": 1, "in_block": 3, "parity_in": 1},
    "detector": {"kind": "two_state"},
}


@pytest.mark.parametrize("jitter_ms", [10.0, 40.0])
@pytest.mark.parametrize("interval_ms", [10.0, 2.0])
def test_lossless_bursts_under_reordering_move_no_recovery_bytes(interval_ms, jitter_ms):
    doc = {**BURSTY,
           "topology": {**BURSTY["topology"],
                        "direct": {"delay_ms": 40.0, "jitter_ms": jitter_ms}},
           "flows": {**BURSTY["flows"], "interval_ms": interval_ms}}
    cfg = validate(doc)
    for seed in range(10):
        m = run_seed(cfg, seed)
        assert m.lost == 0, seed
        assert m.dc2_egress_recovery_bytes == 0, seed
