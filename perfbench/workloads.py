"""Seeded experiment configs for the benchmark workloads.

Each workload builds a pool of configs from the workload seed. Only the
physics varies with the seed (Hamiltonian entries, initial state,
observable, coupling profiles, kernel widths, potential); sizes are fixed
per workload, so every experiment does the same amount of work.
"""

from __future__ import annotations

import numpy as np

# sizes per workload; "smoke" sizes run every workload in about a second
SIZES = {
    "crosscheck_qubit": {"full": {"N": 18, "L": 256}, "smoke": {"N": 8, "L": 128}},
    "paths_generic": {"full": {"N": 10, "L": 64}, "smoke": {"N": 6, "L": 64}},
    "readout_finite_time": {"full": {"N": 512, "L": 8192}, "smoke": {"N": 16, "L": 256}},
    "transform_pair": {"full": {"N": 128, "L": 2048}, "smoke": {"N": 16, "L": 128}},
    "particle_dwell": {"full": {"N": 256, "L": 256, "n_x": 512},
                       "smoke": {"N": 32, "L": 64, "n_x": 512}},
}


def _pairs(z) -> list:
    """Complex entries in the config's [re, im] form."""
    return [[float(v.real), float(v.imag)] for v in np.ravel(z)]


def _state(rng: np.random.Generator, dim: int) -> list:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return _pairs(psi / np.linalg.norm(psi))


def _hermitian(rng: np.random.Generator, dim: int) -> list:
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    M = (M + M.conj().T) / 2
    return [_pairs(row) for row in M]


def _qubit(rng: np.random.Generator) -> dict:
    return {"kind": "qubit",
            "epsilon1": float(rng.uniform(-0.5, 0.5)),
            "epsilon2": float(rng.uniform(0.5, 1.5)),
            "coupling": float(rng.uniform(0.2, 0.8))}


def crosscheck_qubit(rng, N, L):
    c = float(rng.uniform(0.8, 1.2))
    df = c / N  # aligned lattice spacing for T = 1 and eigenvalue gap 1
    return {
        "schema_version": 1, "route": "crosscheck", "seed": 0,
        "system": _qubit(rng),
        "observable": {"kind": "coordinates"},
        "time": {"total": 1.0, "slices": N},
        "initial_state": _state(rng, 2),
        "meters": [{"beta": {"kind": "constant", "value": c},
                    "grid": {"points": L, "aligned": True},
                    # at least 3 cells wide: a narrower kernel's lambda symbol is
                    # cut off at the grid edge and misses probability_mass
                    "kernel": {"kind": "gaussian",
                               "width": float(rng.uniform(3.0, 5.0) * df)}}],
        "mensky": {"sigma": float(rng.uniform(5e-4, 2e-3))},
    }


def paths_generic(rng, N, L):
    return {
        "schema_version": 1, "route": "paths", "seed": int(rng.integers(2**31)),
        "system": {"kind": "random", "dim": 3},
        "observable": {"kind": "matrix", "entries": _hermitian(rng, 3)},
        "time": {"total": 1.0, "slices": N},
        "initial_state": _state(rng, 3),
        "meters": [{"beta": {"kind": "sampled",
                             "values": [float(v) for v in rng.uniform(0.5, 1.5, N)]},
                    "grid": {"points": L, "df": 0.25}}
                   for _ in range(2)],
    }


def readout_finite_time(rng, N, L):
    c = float(rng.uniform(0.8, 1.2))
    df = c / N
    return {
        "schema_version": 1, "route": "lambda", "seed": 0,
        "system": _qubit(rng),
        "observable": {"kind": "coordinates"},
        "time": {"total": 1.0, "slices": N},
        "initial_state": _state(rng, 2),
        "meters": [{"beta": {"kind": "constant", "value": c},
                    "grid": {"points": L, "aligned": True},
                    "kernel": {"kind": "gaussian",
                               "width": float(rng.uniform(4.0, 8.0) * df)}}],
    }


def transform_pair(rng, N, L):
    c = float(rng.uniform(0.8, 1.2))
    return {
        "schema_version": 1, "route": "transform", "seed": 0,
        "system": _qubit(rng),
        "observable": {"kind": "coordinates"},
        "time": {"total": 1.0, "slices": N},
        "initial_state": _state(rng, 2),
        # readout range +-L df / 2 covers the attainable [-c, 2c]
        "meters": [{"beta": {"kind": "constant", "value": c},
                    "grid": {"points": L, "df": 6.0 / L}}],
        "transform": {"observable_b": {"kind": "matrix",
                                       "entries": [[0.0, 1.0], [1.0, 0.0]]}},
    }


def particle_dwell(rng, N, L, n_x):
    dx = 0.125
    c = float(rng.uniform(0.8, 1.2))
    lo = float(rng.uniform(-3.0, -2.0))
    # the barrier sits well right of the packet: its sharp edges scatter
    # into lattice-edge momenta, which reach the boundary cells and would
    # eat the boundary-flux margin if the packet started on top of it. The
    # packet's tail at the barrier sets that margin, so its width and
    # centre stay nearly fixed and the margin stays comparable across seeds.
    return {
        "schema_version": 1, "route": "lambda", "seed": 0,
        "system": {
            "kind": "particle1d", "n_x": n_x, "x_min": -dx * n_x / 2, "dx": dx,
            "mass": 1.0,
            "packet": {"center": float(rng.uniform(-1.05, -0.95)), "width": 1.0,
                       "momentum": float(rng.uniform(-0.3, 0.3))},
            "potential": {"kind": "barrier", "lo": 4.0, "hi": 4.5,
                          "height": float(rng.uniform(0.8, 1.2))},
        },
        "time": {"total": 1.0, "slices": N},
        "meters": [{"beta": {"kind": "constant", "value": c},
                    "grid": {"points": L, "df": 4.0 / L},
                    "functional": {"kind": "region", "lo": lo,
                                   "hi": float(lo + rng.uniform(3.0, 4.0))}}],
    }


BUILDERS = {
    "crosscheck_qubit": crosscheck_qubit,
    "paths_generic": paths_generic,
    "readout_finite_time": readout_finite_time,
    "transform_pair": transform_pair,
    "particle_dwell": particle_dwell,
}


def configs(workload: str, seed: int, n: int, smoke: bool = False) -> list:
    """`n` configs for `workload`, the same for the same seed."""
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    rng = np.random.default_rng([seed % 2**64, sorted(BUILDERS).index(workload)])
    return [BUILDERS[workload](rng, **sizes) for _ in range(n)]
