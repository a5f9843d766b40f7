"""The contraction map: iterate v -> linear solve of box v = N[u] with the
original data, and measure contraction in the energy + local-energy metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemSpec,
    RadialField,
    RadialGrid,
    Trajectory,
    WeightParams,
    e_norms,
    lambda_norms,
    le_norm,
    trajectory_difference,
    weight_exponents,
)
from .errors import Divergence, PreconditionViolation
from .solver import LinearSeries, _add_nonlinearity, _flush_scratch, evolve

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


@dataclass(frozen=True)
class PicardResult:
    final: Trajectory
    trace: tuple
    converged: bool
    weights: WeightParams
    lambda1: float


def sampled_nonlinearity(traj: Trajectory) -> LinearSeries:
    """N[u] on the trajectory's sample times, linearly interpolated between."""
    fields = np.zeros_like(traj.u)
    scratch = _flush_scratch(fields.shape[1], traj.problem.p)
    for row, u, v in zip(fields, traj.u, traj.v):
        _add_nonlinearity(row, u, v, traj.grid.spacing, traj.problem, scratch)
    return LinearSeries(traj.times, fields)


def phi_map(
    u_traj: Trajectory,
    u0: RadialField,
    u1: RadialField,
    grid: RadialGrid,
    t_end: float,
    cfl: float = 0.25,
    sample_stride: int = 10,
) -> Trajectory:
    """One application of the iteration map: linear solve forced by N[u].

    Raises Divergence when the forced solve trips the blow-up detector (the
    iterate has left any reasonable ball before a step metric can be taken).
    """
    spec = u_traj.problem
    forcing = None
    if spec.a != 0.0 or spec.b != 0.0:
        forcing = sampled_nonlinearity(u_traj)
    outcome = evolve(
        spec,
        u0,
        u1,
        grid,
        t_end,
        forcing=forcing,
        linear_only=True,
        cfl=cfl,
        sample_stride=sample_stride,
    )
    if outcome.status != "completed":
        raise Divergence(
            f"iterate exploded during the forced linear solve at t={outcome.t_blowup}"
        )
    return outcome.trajectory


def default_weights(spec: ProblemSpec, horizon: float) -> WeightParams:
    """Regime-appropriate LE weights for the contraction metric."""
    if spec.regime == "critical":
        choice = weight_exponents("critical", spec, s2=0.75)
        # the critical family sits at the delta_prime = delta endpoint; back
        # off so the metric stays inside the admissible weight range
        dp = choice.delta - 0.05
    else:
        choice = weight_exponents(spec.regime, spec, DEFAULT_S1, DEFAULT_S2)
        dp = choice.delta_prime
    return WeightParams(delta=choice.delta, delta_prime=dp, horizon=horizon)


def rho_metric(a: Trajectory, b: Trajectory, w: WeightParams) -> float:
    """E1 + LE1 distance between two trajectories on one grid."""
    diff = trajectory_difference(a, b)
    return e_norms(diff, t_max=w.horizon).e1 + le_norm(diff, w).total


def picard_run(
    spec: ProblemSpec,
    u0: RadialField,
    u1: RadialField,
    grid: RadialGrid,
    t_end: float,
    max_iters: int = 12,
    tol: float = 1e-8,
    cfl: float = 0.25,
    sample_stride: int = 10,
) -> PicardResult:
    """Iterate the map from the free solution until the step metric,
    measured with default_weights(spec, t_end), is small.

    Raises Divergence (with the trace attached) when the step metric grows
    tenfold over two consecutive corrections.
    """
    if not 2 <= max_iters <= 50:
        raise PreconditionViolation(f"max_iters must lie in [2, 50], got {max_iters}")
    if tol <= 0.0:
        raise PreconditionViolation("tol must be positive")
    w = default_weights(spec, t_end)

    lam = lambda_norms(u0, u1, spec.n_dim).lambda1
    current = evolve(
        spec, u0, u1, grid, t_end, linear_only=True, cfl=cfl, sample_stride=sample_stride
    ).trajectory

    trace = []
    rhos = []
    converged = False
    for k in range(1, max_iters + 1):
        try:
            nxt = phi_map(current, u0, u1, grid, t_end, cfl=cfl,
                          sample_stride=sample_stride)
        except Divergence as exc:
            raise Divergence(str(exc), trace=trace) from None
        rho = rho_metric(nxt, current, w)
        e = e_norms(nxt, t_max=t_end)
        le1 = le_norm(nxt, w).total
        le2 = le_norm(nxt, w, second_order=True).total
        trace.append(
            PicardTrace(iteration=k, rho_step=rho, e1=e.e1, e2=e.e2, le1=le1, le2=le2)
        )
        rhos.append(rho)
        current = nxt
        if rho <= tol * (lam + 1e-300):
            converged = True
            break
        if len(rhos) >= 3 and rhos[-1] > 10.0 * rhos[-3]:
            raise Divergence(
                f"step metric grew from {rhos[-3]:.3e} to {rhos[-1]:.3e} "
                "over two corrections",
                trace=trace,
            )
    return PicardResult(
        final=current, trace=tuple(trace), converged=converged, weights=w, lambda1=lam
    )


@dataclass(frozen=True)
class SmallnessReport:
    regime: str
    lambda1: float
    lambda2: float
    quantity: float
    breakdown: dict


def smallness_report(
    spec: ProblemSpec,
    u0: RadialField,
    u1: RadialField,
    s1: float = DEFAULT_S1,
    s2: float = DEFAULT_S2,
) -> SmallnessReport:
    """Multiplicative-form data size for the regime the exponent p selects."""
    lam = lambda_norms(u0, u1, spec.n_dim)
    l1, l2 = lam.lambda1, lam.lambda2

    def prod(s):
        if l1 == 0.0 or l2 == 0.0:
            return 0.0
        return l1 ** (1.0 - s) * l2**s

    if spec.regime == "supercritical":
        terms = {"s1_term": prod(s1), "s2_term": prod(s2)}
    elif spec.regime == "critical":
        terms = {"half_term": prod(0.5), "s_term": prod(s2)}
    else:
        terms = {"half_term": prod(0.5)}
    return SmallnessReport(
        regime=spec.regime,
        lambda1=l1,
        lambda2=l2,
        quantity=sum(terms.values()),
        breakdown=terms,
    )
