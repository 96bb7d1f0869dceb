"""N-body time integration — the motivating application, end to end.

The paper's replicated algorithm computes one force evaluation; a real
n-body code calls it every timestep. This module supplies the loop:
velocity-Verlet (symplectic, so physical energy is conserved up to a
bounded oscillation — which the tests check), with the force kernel
pluggable between the serial reference and the metered parallel
algorithms.

The parallel driver keeps particle state resident per team across steps
(positions move once per step around the replication ring, exactly as
the per-step cost model assumes) and returns both the final state and
the run's cost report, so a multi-step simulation's measured W/S can be
compared against steps x the single-evaluation model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.distributions import block_ranges
from repro.algorithms.nbody import (
    GRAVITY,
    ForceLaw,
    nbody_serial,
    team_forces,
    team_layout,
)
from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm

__all__ = ["SimulationResult", "simulate_serial", "simulate_replicated"]


@dataclass(frozen=True)
class SimulationResult:
    """Final state of an integration run."""

    positions: np.ndarray  # (n, dim)
    velocities: np.ndarray  # (n, dim)
    potential_proxy: float  # sum of |force| at the end (diagnostic)


def _validate(pos, vel, q, dt, steps):
    if pos.ndim != 2:
        raise ParameterError(f"positions must be (n, dim), got {pos.shape}")
    if vel.shape != pos.shape:
        raise ParameterError("velocities must match positions' shape")
    if q.shape != (pos.shape[0],):
        raise ParameterError("masses must be (n,)")
    if np.any(q <= 0):
        raise ParameterError("masses must be positive")
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt!r}")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps!r}")


def simulate_serial(
    pos: np.ndarray,
    vel: np.ndarray,
    masses: np.ndarray,
    dt: float,
    steps: int,
    law: ForceLaw = GRAVITY,
) -> SimulationResult:
    """Velocity-Verlet on one processor (the reference trajectory)."""
    _validate(pos, vel, masses, dt, steps)
    x = np.array(pos, dtype=float)
    v = np.array(vel, dtype=float)
    f = nbody_serial(x, masses, law)
    for _ in range(steps):
        v += 0.5 * dt * f / masses[:, None]
        x += dt * v
        f = nbody_serial(x, masses, law)
        v += 0.5 * dt * f / masses[:, None]
    return SimulationResult(
        positions=x, velocities=v, potential_proxy=float(np.abs(f).sum())
    )


def simulate_replicated(
    comm: Comm,
    pos: np.ndarray,
    vel: np.ndarray,
    masses: np.ndarray,
    dt: float,
    steps: int,
    c: int = 1,
    law: ForceLaw = GRAVITY,
) -> SimulationResult | None:
    """Velocity-Verlet with the replicated parallel force kernel.

    Layout matches :func:`repro.algorithms.nbody.nbody_replicated`:
    p = r c ranks in r teams of c; team i owns particle block i and all
    c members hold it (the replication). Each step every member runs its
    r/c ring passes and the team reduces forces; blocks then advance
    locally and the updated state allgathers around the team ring for
    the next step's sources.

    Returns the full final state on team leaders (member 0), None on
    other ranks.
    """
    _validate(pos, vel, masses, dt, steps)
    n = pos.shape[0]
    r = team_layout(comm.size, n, c)

    grid = CartComm(comm, (r, c), periodic=True)
    team, member = grid.coords
    team_ring = grid.sub((True, False))
    team_comm = grid.sub((False, True))

    lo, hi = block_ranges(n, r)[team]
    x = pos[lo:hi].astype(float)
    v = vel[lo:hi].astype(float)
    q = masses[lo:hi].astype(float)
    comm.allocate(x.size + v.size + q.size)

    def forces(x_local: np.ndarray) -> np.ndarray:
        # One replicated force evaluation with the resident block as both
        # targets and the ring sources.
        out = team_forces(
            comm, team_ring.comm, member, c, law, x_local, q,
            tags=("sim_ap", "sim_aq", "sp", "sq"),
        )
        if c > 1:
            out = team_comm.comm.allreduce(out)
        return out

    f = forces(x)
    for _ in range(steps):
        v += 0.5 * dt * f / q[:, None]
        x += dt * v
        comm.add_flops(4.0 * x.size)  # kick + drift updates
        f = forces(x)
        v += 0.5 * dt * f / q[:, None]
        comm.add_flops(2.0 * x.size)
    comm.release()

    if member != 0:
        return None
    # Team leaders assemble the global state (ring allgather of blocks).
    blocks_x = team_ring.comm.allgather(x)
    blocks_v = team_ring.comm.allgather(v)
    return SimulationResult(
        positions=np.vstack(blocks_x),
        velocities=np.vstack(blocks_v),
        potential_proxy=float(np.abs(f).sum()),
    )
