"""The benchmark's workloads: which CLI calls make up one round, and the
grid each call receives.

The seed only jitters drive values inside each workload's window; the
structure of every grid (N, Delta/gamma, number of drives) is fixed, so
every round attempts the same number of points whatever the seed. Drive
jitter is kept narrow where the cost of a point depends on the drive (the
correlator's lag window scales like 1/cos(theta)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Invocation:
    """One ``dicke-lab <mode> --config <file> --threads 1`` call.

    ``expected_error`` names the error every point of the call fails with
    today, on inputs that do not depend on the seed; None means every
    point must succeed.
    """

    name: str
    config: dict
    expected_error: str | None = None

    @property
    def mode(self) -> str:
        return self.config["mode"]


def _jitter(rng: random.Random, nominal, half_width: float) -> list:
    return [round(x + rng.uniform(-half_width, half_width), 6) for x in nominal]


def _figures(rng):
    # the figure grid of the paper: N = 50, 2 Delta/gamma in {0, 1, 2}, drives
    # from the weak-drive limit through the squeezing minimum to above threshold
    sweep = {
        "drive": {"values": _jitter(rng, [0.2, 0.6, 0.87, 1.1], 0.02)},
        "Delta_over_gamma": [0.0, 0.5, 1.0],
    }
    params = {"effective": {"gamma": 1.0, "N": 50}}
    return [
        Invocation("fig2", {"mode": "sweep-jz", "params": params, "sweep": sweep}),
        Invocation("fig3", {"mode": "sweep-squeezing", "params": params, "sweep": sweep}),
    ]


def _scaling(rng):
    grid = {
        "mode": "sweep-squeezing",
        "params": {"effective": {"gamma": 1.0}},
        "sweep": {
            "N": [100],
            "drive": {"values": _jitter(rng, [0.81, 0.9, 0.945], 0.005)},
            "Delta_over_gamma": [0.0, 1.0],
        },
    }
    # The uniqueness probe ratio here is 5.6e-7, under the fixed threshold
    # of 1e-6, although the state is unique (the closed form solves it).
    # The point is kept at a fixed drive and counted as failed.
    probe = {
        "mode": "sweep-squeezing",
        "params": {"effective": {"gamma": 1.0}},
        "sweep": {"N": [200], "drive": {"values": [0.85]}, "Delta_over_gamma": [3.0]},
    }
    return [
        Invocation("squeezing_n100", grid),
        Invocation("squeezing_n200", probe, expected_error="NonUniqueSteadyState"),
    ]


def _spectrum(rng):
    embed = {"n_tau": 512, "kappa_embed_over_gamma": 1000.0}

    def point(delta_over_gamma, nominal):
        return {
            "mode": "spectrum",
            "params": {"effective": {"gamma": 1.0}},
            "sweep": {
                "N": [100],
                "drive": {"values": _jitter(rng, [nominal], 0.005)},
                "Delta_over_gamma": [delta_over_gamma],
            },
            "spectrum": embed,
        }

    # weak drive: fluctuations below round-off; near threshold: resolved
    return [
        Invocation("spectrum_weak", point(0.0, 0.55)),
        Invocation("spectrum_near", point(0.5, 0.9)),
    ]


def _elimination(rng):
    # kappa / (sqrt(N) |g|) = 1 / (2 * 0.05) = 10
    config = {
        "mode": "validate-elimination",
        "params": {"cavity": {"g": 0.05, "kappa": 1.0, "delta_c": 0.0, "Omega_L": 0.0, "N": 4}},
        "sweep": {"drive": {"values": _jitter(rng, [0.3, 0.7], 0.05)}},
        "elimination": {"min_adiabaticity": 5.0},
    }
    return [Invocation("elimination_n4", config)]


GRIDS = {
    "figures": _figures,
    "scaling": _scaling,
    "spectrum": _spectrum,
    "elimination": _elimination,
}

# the traced run of these also times run(cfg) at the default worker count
POOLED_IN_TRACE = ("figures",)


def build(workload: str, seed: int) -> list:
    return GRIDS[workload](random.Random(f"{workload}:{seed}"))
