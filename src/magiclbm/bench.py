"""Kernel benchmark: the fused channel march, timed and checked.

Times the force-driven channel march of the fused kernel and reports
steps per second and million lattice updates per second (MLUPS,
``nx * ny * steps/s / 1e6``).  Then it replays the timed march step by
step against the step composed from the reference modules (moment
maps, relax, forcing, stream) and reports their largest absolute
difference, which should stay at round-off.
"""

import time

import numpy as np

from . import kernels
from .boundaries import force_channel_closures
from .collision import apply_force_split_half, equilibrium_d2q9, relax, relaxation_d2q9
from .lattice import D2Q9, build_d2q9_basis, from_moments, stream, to_moments

__all__ = ["run_benchmark", "format_report"]


def _reference_step(f, basis, closures, kw):
    m = apply_force_split_half(to_moments(basis, f), kw["fx"], "pre")
    meq = equilibrium_d2q9(m[0], m[1], m[2], kw["alpha"], kw["beta"])
    m = apply_force_split_half(relax(m, meq, kw["settings"]), kw["fx"], "post")
    return stream(D2Q9, from_moments(basis, m), closures)


def run_benchmark(nx=100, ny=21, steps=1000, warmup=100):
    """Time the channel march and check it against the reference step.

    The warmup chunk builds the operators; the timed chunk continues
    from the warmed state.  Returns a dict with the grid, step counts,
    steps per second, MLUPS, and the largest absolute difference between
    the fused and the composed reference trajectories over the timed
    steps.
    """
    closures = force_channel_closures()
    kw = dict(
        settings=relaxation_d2q9(0.375, 1.0),
        alpha=-2.0,
        beta=1.0,
        driving="force-split-half",
        fx=1e-6,
    )
    start = kernels.d2q9_run(np.zeros((9, ny, nx)), warmup, closures, **kw)
    began = time.perf_counter()
    kernels.d2q9_run(start, steps, closures, **kw)
    rate = steps / (time.perf_counter() - began)

    basis = build_d2q9_basis()
    fused, reference, deviation = start, start, 0.0
    for _ in range(steps):
        fused = kernels.d2q9_run(fused, 1, closures, **kw)
        reference = _reference_step(reference, basis, closures, kw)
        deviation = max(deviation, float(np.max(np.abs(fused - reference))))
    return {
        "nx": nx,
        "ny": ny,
        "steps": steps,
        "warmup": warmup,
        "steps_per_s": rate,
        "mlups": nx * ny * rate / 1e6,
        "max_abs_deviation": deviation,
    }


def format_report(report):
    """Human-readable lines for a run_benchmark result."""
    return [
        f"channel march on {report['nx']}x{report['ny']} "
        f"({report['warmup']} warmup + {report['steps']} timed steps)",
        f"  fused kernel: {report['steps_per_s']:10.1f} steps/s, "
        f"{report['mlups']:.2f} MLUPS",
        "  max abs deviation from the composed reference step: "
        f"{report['max_abs_deviation']:.3g}",
    ]
