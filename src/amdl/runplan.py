"""The run plan: every sample size, target, confidence and regime rule of a
run, fixed from (alg, SolverConfig, k, d, s) before anything is drawn, and
an upper bound on the labels the run can query.  The learners read their
sizes from it, so each formula has this one home; README's "Knob profiles"
table states them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

from .core import ContractViolation, check_int, check_real
from .hedge import SolverConfig, hyperparams

REGIME_FACTOR = 100.0
AGREEMENT_FACTOR = 100.0   # the constant in active-dd-small's agreement sample n0
LABEL_CEILING = 10 ** 8    # the harness refuses a run whose plan may query more labels


def halving(n0: int, delta: float) -> Iterator[tuple[int, float, float]]:
    """The epoch schedule (n, eps_n, delta_n) for n = 1..n0: eps_n = 2^-n and
    delta_n = delta / (2 n^2), so the epochs' confidences sum below delta."""
    for n in range(1, n0 + 1):
        yield n, 2.0 ** -n, delta / (2.0 * n * n)


def batch_size(s_star: int, xi: float, c_n: float = 1.0) -> int:
    """Smallest n with (10 s ln(en/s) + 4 ln 80)/n <= xi/2, scaled by the knob.

    The sizing instantiates the consistent-version-space disagreement-mass
    bound at per-batch confidence 1/40; found by doubling then bisection.  The
    log factor is clamped at 1 since the bound is vacuous below n = s.
    """
    if not 0 < check_real("target reliability", xi) <= 1:
        raise ContractViolation(f"target reliability must lie in (0, 1], got {xi!r}")
    s_star = check_int("star number", s_star)
    check_real("batch-size knob", c_n, 0)

    def load(n: int) -> float:
        dis = 10.0 * s_star * max(1.0, math.log(math.e * n / s_star)) \
            if s_star > 0 else 0.0
        return (dis + 4.0 * math.log(80.0)) / n

    hi = 1
    while load(hi) > xi / 2.0:
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if load(mid) <= xi / 2.0:
            hi = mid
        else:
            lo = mid + 1
    return max(1, math.ceil(c_n * hi))


def _solve(cfg: SolverConfig, k: int, d: int) -> SolverConfig:
    hyperparams(cfg, k, d)      # a schedule that is not finite is refused now, not mid-run
    return cfg


@dataclass(frozen=True)
class Robust:
    """A pruning loop at reliability xi: at most `cap` rounds of N batches of
    `batch` pairs each."""

    xi: float
    cap: int
    N: int
    batch: int


def robust(k: int, xi: float, delta: float, s_star: int, c_n: float) -> Robust:
    """The pruning loop over k distributions: at most 4 ceil(log2 k) + 4
    rounds, each a robust learn at reliability xi/2 and confidence
    delta' = delta / (2 ceil(log2 k) + 2), so the union bound over the cap
    holds; it uses N = 60 ceil(ln 1/delta') batches."""
    log2k = math.ceil(math.log2(k)) if k > 1 else 0
    cap, delta_call = 4 * log2k + 4, delta / (2 * log2k + 2)
    N = 60 * max(1, math.ceil(math.log(1.0 / delta_call)))
    return Robust(xi, cap, N, batch_size(s_star, xi / 2.0, c_n))


@dataclass(frozen=True)
class Epoch:
    """Halving epoch n at target eps_n and confidence delta_n: a Hedge solve
    or, in active-df before its last epoch, a pruning loop."""

    n: int
    eps_n: float
    delta_n: float
    solve: SolverConfig | None = None
    robust: Robust | None = None


@dataclass(frozen=True)
class RunPlan:
    """What a run does and may spend, in run order; an algorithm leaves the
    parts it lacks empty."""

    alg: str
    cfg: SolverConfig            # the run's eps, delta, nu and knobs
    k: int
    d: int
    s: int | None = None
    learner: str = ""            # the learner that runs it: large, small, df, hedge or naive
    stage1: RunPlan | None = None    # active-dd-small's stage one, when it runs
    eps_p: float = 1.0           # its target: V0 keeps the members within 2 eps_p
    epochs: tuple[Epoch, ...] = ()
    n0: int = 0                  # agreement sample per distribution
    solve: SolverConfig | None = None   # passive-hedge's or active-dd-small's stage two
    naive_n: int = 0             # passive-naive's sample per distribution
    warnings: tuple[str, ...] = ()

    def solves(self) -> list[SolverConfig]:
        """Every Hedge solve the run can make, in run order."""
        return [*(self.stage1.solves() if self.stage1 else ()),
                *(e.solve for e in self.epochs if e.solve), *(s for s in (self.solve,) if s)]

    def label_parts(self) -> dict[str, int]:
        """Label bounds of the agreement sample, the solves, the pruning loops
        and the naive sample.  A solve of `hyperparams` schedule (T, T1) makes
        at most k (k T + T1) queries: a round draws at most k pairs per
        distribution and the store at most T1; a pruning loop at most cap N
        batch."""
        k, d = self.k, self.d
        rounds = (hyperparams(c, k, d)[2:] for c in self.solves())
        return {"agreement": k * self.n0, "solve": sum(k * (k * T + T1) for T, T1 in rounds),
                "rpu": sum(r.cap * r.N * r.batch for r in (e.robust for e in self.epochs) if r),
                "naive": k * self.naive_n}

    @property
    def label_bound(self) -> int:
        return sum(self.label_parts().values())


def _large(p: RunPlan) -> RunPlan:
    cfg = p.cfg
    n0 = math.ceil(math.log2(1.0 / cfg.eps) - 1e-12)
    epochs = tuple(Epoch(n, eps_n, delta_n, solve=_solve(
        replace(cfg, eps=eps_n, delta=delta_n, nu=eps_n / REGIME_FACTOR), p.k, p.d))
        for n, eps_n, delta_n in halving(n0, cfg.delta))
    warnings = ()
    if cfg.eps < REGIME_FACTOR * cfg.nu:
        warnings = (f"regime: eps={cfg.eps} < {REGIME_FACTOR}*nu={REGIME_FACTOR * cfg.nu}",)
    return replace(p, learner="large", epochs=epochs, warnings=warnings)


def _small(p: RunPlan) -> RunPlan:
    eps, nu = p.cfg.eps, p.cfg.nu
    if not nu > 0:
        raise ContractViolation("the small-eps stage requires a supplied nu in (0,1)")
    warnings = []
    if eps >= REGIME_FACTOR * nu:
        warnings.append(f"regime: eps={eps} >= {REGIME_FACTOR}*nu={REGIME_FACTOR * nu}")
    delta_p = p.cfg.delta / 6.0
    eps_p = min(REGIME_FACTOR * nu, 1.0)
    stage1 = None
    if eps_p < 1.0:
        stage1 = _large(RunPlan("active-dd-large", replace(p.cfg, eps=eps_p, delta=delta_p),
                                p.k, p.d))
    else:
        # an excess-error target of 1 is vacuous: stage one is skipped
        warnings.append("stage1 skipped: 100*nu >= 1, V0 = full class")
    n0 = math.ceil(AGREEMENT_FACTOR * (eps + nu) / eps ** 2 * math.log(p.k / delta_p))
    return replace(p, learner="small", stage1=stage1, eps_p=eps_p, n0=n0, warnings=tuple(warnings),
                   solve=_solve(replace(p.cfg, eps=eps / 2.0, delta=delta_p), p.k, p.d))


def _auto(p: RunPlan) -> RunPlan:
    return _large(p) if p.cfg.eps >= REGIME_FACTOR * p.cfg.nu else _small(p)


def _dist_free(p: RunPlan) -> RunPlan:
    cfg, k, d, s = p.cfg, p.k, p.d, check_int("active-df's star number s", p.s)
    n0 = max(1, math.ceil(math.log2((d + k) / (s * cfg.eps)) - 1e-12)) if s > 0 else 1
    warnings = []
    if cfg.eps < REGIME_FACTOR * (k + d) * cfg.nu:
        warnings.append(f"regime: eps={cfg.eps} < {REGIME_FACTOR:g}*(k+d)*nu="
                        f"{REGIME_FACTOR * (k + d) * cfg.nu}")
    *robust_epochs, (n, eps_n, delta_n) = halving(n0, cfg.delta)
    # the last epoch's passive solve targets the overall eps, not 2^-n0
    final = Epoch(n, eps_n, delta_n, solve=_solve(replace(cfg, delta=delta_n), k, d))
    epochs = []
    for n, eps_n, delta_n in robust_epochs:
        # the robust learner's guarantee needs its reliability target to
        # dominate the noise by a star-number factor; warn, don't enforce
        if s > 0 and cfg.nu > 0 and eps_n < REGIME_FACTOR * s * cfg.nu:
            warnings.append(f"rpu regime: epoch {n} target {eps_n} < {REGIME_FACTOR:g}*s*nu="
                            f"{REGIME_FACTOR * s * cfg.nu}")
        epochs.append(Epoch(n, eps_n, delta_n, robust=robust(k, eps_n, delta_n, s, cfg.c_n)))
    return replace(p, learner="df", epochs=(*epochs, final), warnings=tuple(warnings))


def _naive(p: RunPlan) -> RunPlan:
    eps = p.cfg.eps
    n = math.ceil(max(p.d, 1) * (p.cfg.nu + eps) / eps ** 2 * math.log(p.k / (p.cfg.delta * eps)))
    return replace(p, learner="naive", naive_n=max(n, 1))


_PLANNERS = {"active-dd-large": _large, "active-dd-small": _small, "active-dd-auto": _auto,
             "active-df": _dist_free,
             "passive-hedge": lambda p: replace(p, learner="hedge", solve=_solve(p.cfg, p.k, p.d)),
             "passive-naive": _naive}
ALGORITHMS = tuple(_PLANNERS)


def plan(alg: str, cfg: SolverConfig, k: int, d: int, s: int | None = None) -> RunPlan:
    """The plan of a run of `alg` to `cfg`'s target on k distributions, with
    VC dimension d and, for active-df, star number s.  An unknown alg, a k or d
    that is not an int >= 1 or >= 0, and a size that overflows, underflows or
    is not a number are refused with ContractViolation."""
    if alg not in _PLANNERS:
        raise ContractViolation(f"unknown algorithm {alg!r}; known: {list(ALGORITHMS)}")
    k, d = check_int("k", k, 1), check_int("d", d)
    try:
        return _PLANNERS[alg](RunPlan(alg, cfg, k, d, s))
    except ContractViolation:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise ContractViolation(f"{alg} has no finite plan at eps={cfg.eps!r}: {exc}") from exc
