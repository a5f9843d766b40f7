"""The contraction map: iterate v -> linear solve of box v = N[u] with the
original data, and measure contraction in the energy + local-energy metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .core import (
    ProblemSpec,
    RadialField,
    Trajectory,
    WeightParams,
    e_norms,
    lambda_norms,
    le_norm,
    norm_report,
    trajectory_difference,
    weight_exponents,
)
from .errors import Divergence, PreconditionViolation
from .solver import DEFAULT_CFL, DEFAULT_STRIDE, evolve, sampled_nonlinearity

DEFAULT_S1 = 0.5
DEFAULT_S2 = 1.0


@dataclass(frozen=True)
class PicardTrace:
    iteration: int
    rho_step: float
    e1: float
    e2: float
    le1: float
    le2: float

    def __post_init__(self):
        for name in ("rho_step", "e1", "e2", "le1", "le2"):
            if not math.isfinite(getattr(self, name)):
                raise PreconditionViolation(f"trace entry {name} must be finite")


# the CSV layout of picard_trace.csv: the trace's field names
TRACE_COLUMNS = tuple(f.name for f in fields(PicardTrace))


@dataclass(frozen=True)
class PicardResult:
    final: Trajectory
    trace: tuple
    converged: bool
    weights: WeightParams
    lambda1: float


def phi_map(
    spec: ProblemSpec,
    u_traj: Trajectory,
    u0: RadialField,
    u1: RadialField,
    t_end: float,
    cfl: float = DEFAULT_CFL,
    sample_stride: int = DEFAULT_STRIDE,
) -> Trajectory:
    """One application of the iteration map: the free wave of spec (a = b = 0)
    from (u0, u1), forced by spec's N[u] on u_traj, on the grid of u0.

    Raises Divergence when the forced solve trips the blow-up detector (the
    iterate has left any reasonable ball before a step metric can be taken).
    """
    forcing = None
    if spec.a != 0.0 or spec.b != 0.0:
        forcing = sampled_nonlinearity(spec, u_traj)
    outcome = evolve(replace(spec, a=0.0, b=0.0), u0, u1, u0.grid, t_end, forcing=forcing,
                     cfl=cfl, sample_stride=sample_stride)
    if outcome.status != "completed":
        raise Divergence(
            f"iterate exploded during the forced linear solve at t={outcome.t_blowup}"
        )
    return outcome.trajectory


def default_weights(spec: ProblemSpec, horizon: float) -> WeightParams:
    """Regime-appropriate LE weights for the contraction metric."""
    if spec.regime == "critical":
        delta, _ = weight_exponents(spec, s2=0.75)
        # the critical family sits at the delta_prime = delta endpoint; back
        # off so the metric stays inside the admissible weight range
        delta_prime = delta - 0.05
    else:
        delta, delta_prime = weight_exponents(spec, DEFAULT_S1, DEFAULT_S2)
    return WeightParams(delta=delta, delta_prime=delta_prime, horizon=horizon)


def rho_metric(a: Trajectory, b: Trajectory, w: WeightParams) -> float:
    """E1 + LE1 distance between two trajectories on one grid."""
    diff = trajectory_difference(a, b)
    return e_norms(diff, t_max=w.horizon) + le_norm(diff, w).total


def picard_run(
    spec: ProblemSpec,
    u0: RadialField,
    u1: RadialField,
    t_end: float,
    max_iters: int = 12,
    tol: float = 1e-8,
    cfl: float = DEFAULT_CFL,
    sample_stride: int = DEFAULT_STRIDE,
) -> PicardResult:
    """Iterate the map from the free solution on the grid of u0 until the
    step metric, measured with default_weights(spec, t_end), is small.  Every
    iterate, `final` too, is a solve of the free spec (a = b = 0).

    Raises Divergence (with the trace attached) when the step metric grows
    tenfold over two consecutive corrections.
    """
    if not 2 <= max_iters <= 50:
        raise PreconditionViolation(f"max_iters must lie in [2, 50], got {max_iters}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionViolation(f"tol must be finite and positive, got {tol}")
    w = default_weights(spec, t_end)

    lam = lambda_norms(u0, u1, spec.n_dim).lambda1
    current = evolve(replace(spec, a=0.0, b=0.0), u0, u1, u0.grid, t_end, cfl=cfl,
                     sample_stride=sample_stride).trajectory

    trace = []
    converged = False
    for k in range(1, max_iters + 1):
        try:
            nxt = phi_map(spec, current, u0, u1, t_end, cfl=cfl,
                          sample_stride=sample_stride)
        except Divergence as exc:
            raise Divergence(str(exc), trace=trace) from None
        rho = rho_metric(nxt, current, w)
        norms = norm_report(nxt, w)
        trace.append(PicardTrace(iteration=k, rho_step=rho, e1=norms.e1, e2=norms.e2,
                                 le1=norms.le1, le2=norms.le2))
        current = nxt
        if rho <= tol * (lam + 1e-300):
            converged = True
            break
        if len(trace) >= 3 and rho > 10.0 * trace[-3].rho_step:
            raise Divergence(
                f"step metric grew from {trace[-3].rho_step:.3e} to {rho:.3e} "
                "over two corrections",
                trace=trace,
            )
    return PicardResult(
        final=current, trace=tuple(trace), converged=converged, weights=w, lambda1=lam
    )
