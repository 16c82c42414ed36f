"""The hill-climbing search driver.

Implements the RAxML search skeleton that RAxML-Light and ExaML share
(the paper stresses both codes run *exactly the same* algorithm):

1. optimize branch lengths and model parameters on the starting tree;
2. iterate lazy-SPR rounds with an escalating rearrangement radius,
   re-smoothing branches and re-optimizing the model between rounds;
3. stop when a round improves the log likelihood by less than ``epsilon``
   at the maximum radius (or the iteration cap is hit).

The driver is engine-agnostic: give it any
:class:`~repro.likelihood.backend.LikelihoodBackend` and it will emit the
same deterministic sequence of likelihood operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SearchError
from repro.likelihood.optimize_branch import smooth_all_branches
from repro.likelihood.optimize_model import optimize_model
from repro.obs.progress import NULL_PROGRESS
from repro.obs.tracer import NULL_TRACER
from repro.search.spr import SPRStats, spr_round

__all__ = ["SearchConfig", "SearchResult", "hill_climb"]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of the hill climber.

    The defaults are scaled-down analogues of RAxML's production settings
    so that test and benchmark runs finish in reasonable time; the
    algorithmic structure (and therefore the parallel-region stream) is
    unchanged.
    """

    epsilon: float = 0.1
    max_iterations: int = 20
    radius_min: int = 1
    radius_max: int = 5
    branch_passes: int = 1
    model_opt: bool = True
    optimize_gtr: bool = False
    alpha_iterations: int = 16
    gtr_iterations: int = 10
    psr_candidates: int = 12
    accept_epsilon: float = 1.0e-3
    lazy_newton_iters: int = 8
    checkpoint_every: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise SearchError("epsilon must be positive")
        if self.radius_min < 1 or self.radius_max < self.radius_min:
            raise SearchError("invalid radius schedule")
        if self.max_iterations < 1:
            raise SearchError("need at least one iteration")
        if self.checkpoint_every < 0:
            raise SearchError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise SearchError("checkpoint_every needs a checkpoint_path")


@dataclass
class SearchResult:
    """Outcome of a hill-climbing run."""

    logl: float
    iterations: int
    moves_accepted: int
    insertions_tried: int
    converged: bool
    logl_trace: list[float] = field(default_factory=list)
    #: True when the search stopped at a cooperative cancellation point
    #: (SIGTERM under a cancellable launcher) instead of converging.
    cancelled: bool = False


def hill_climb(backend, config: SearchConfig | None = None) -> SearchResult:
    """Run the full search on ``backend``; returns a :class:`SearchResult`.

    The backend's tree is modified in place (it ends as the best tree
    found).
    """
    config = config or SearchConfig()
    tree = backend.tree
    # Search-phase spans: backends built by a tracing launcher carry a
    # tracer; everything else gets the zero-cost null tracer.  (Explicit
    # None check: a span-less Tracer is empty, hence falsy.)
    tracer = getattr(backend, "tracer", None)
    if tracer is None:
        tracer = NULL_TRACER
    # Live progress events follow the same discipline: backends built by
    # a monitoring launcher carry a reporter, everything else gets the
    # shared no-op (no allocation, no clock read on the hot path).
    progress = getattr(backend, "progress", None)
    if progress is None:
        progress = NULL_PROGRESS

    def write_checkpoint(iteration: int, radius: int, logl: float) -> None:
        # Only backends that expose their full likelihood state can
        # write one, and in a replicated run only one rank should (all
        # replicas hold identical state — maximum redundancy, any
        # writer works).
        if not config.checkpoint_path:
            return
        if not getattr(backend, "writes_checkpoints", True):
            return
        lik = getattr(backend, "lik", None)
        if lik is None:  # pragma: no cover - backends without a likelihood
            return
        from repro.search.checkpoint import save_checkpoint

        save_checkpoint(config.checkpoint_path, lik, iteration, radius, logl)
        progress.checkpoint(str(config.checkpoint_path), iteration)

    def maybe_checkpoint(iteration: int, radius: int, logl: float) -> None:
        # Periodic checkpointing (RAxML-Light's headline feature).
        if not config.checkpoint_every or iteration % config.checkpoint_every:
            return
        write_checkpoint(iteration, radius, logl)

    def anchor():
        # SPR moves may delete whichever edge we evaluated at last time;
        # re-anchor at the (deterministic) first edge of the current tree.
        return tree.edges()[0]

    u, v = anchor()

    progress.phase("initial_smooth")
    with tracer.span("initial_smooth", kind="search"):
        smooth_all_branches(backend, passes=max(2, config.branch_passes))
    logl, _ = backend.evaluate(u, v)
    progress.status(logl=logl)
    if config.model_opt:
        progress.phase("model_opt", iteration=0)
        with tracer.span("model_opt", kind="search", iteration=0):
            logl = optimize_model(
                backend,
                u,
                v,
                alpha_iterations=config.alpha_iterations,
                gtr_iterations=config.gtr_iterations,
                psr_candidates=config.psr_candidates,
                optimize_rates=config.optimize_gtr,
            )

    trace = [logl]
    radius = config.radius_min
    moves_total = 0
    insertions_total = 0
    converged = False
    cancelled = False
    iterations = 0
    # Cooperative cancellation: launchers armed with ``cancellable=True``
    # attach an ``agree_stop`` poll (see repro.engines.cancel).  Polled
    # once per iteration, at the boundary — the only point where tree,
    # model and CLV state are guaranteed consistent, hence the only
    # point where a final checkpoint is safe to write.
    agree_stop = getattr(backend, "agree_stop", None)

    for next_iteration in range(1, config.max_iterations + 1):
        if agree_stop is not None and agree_stop():
            cancelled = True
            progress.event("cancelled", iteration=iterations, logl=logl)
            write_checkpoint(iterations, radius, logl)
            break
        iterations = next_iteration
        progress.phase("spr_round", iteration=iterations, radius=radius)
        progress.status(iteration=iterations, radius=radius)
        with tracer.span("spr_round", kind="search", iteration=iterations,
                         radius=radius):
            stats: SPRStats = spr_round(
                backend,
                radius,
                logl,
                accept_epsilon=config.accept_epsilon,
                lazy_newton_iters=config.lazy_newton_iters,
            )
        moves_total += stats.moves_accepted
        insertions_total += stats.insertions_tried

        progress.phase("smooth_branches", iteration=iterations)
        with tracer.span("smooth_branches", kind="search",
                         iteration=iterations):
            smooth_all_branches(backend, passes=config.branch_passes)
        u, v = anchor()
        new_logl, _ = backend.evaluate(u, v)
        if config.model_opt:
            progress.phase("model_opt", iteration=iterations)
            with tracer.span("model_opt", kind="search",
                             iteration=iterations):
                new_logl = optimize_model(
                    backend,
                    u,
                    v,
                    alpha_iterations=config.alpha_iterations,
                    gtr_iterations=config.gtr_iterations,
                    psr_candidates=config.psr_candidates,
                    optimize_rates=config.optimize_gtr,
                )
        improvement = new_logl - logl
        logl = max(logl, new_logl)
        trace.append(logl)
        progress.iteration(iterations, logl=logl, radius=radius,
                           moves_accepted=stats.moves_accepted,
                           insertions_tried=stats.insertions_tried)
        maybe_checkpoint(iterations, radius, logl)

        if improvement < config.epsilon and stats.moves_accepted == 0:
            if radius >= config.radius_max:
                converged = True
                break
            radius = min(radius * 2, config.radius_max)
        else:
            # RAxML-style escalation: widen the rearrangement radius as the
            # easy local moves dry up, instead of looping forever at the
            # smallest radius (which strands the search in shallow optima)
            radius = min(radius + 1, config.radius_max)

    backend.finish()
    progress.event("search_end", logl=logl, iterations=iterations,
                   moves_accepted=moves_total, converged=converged,
                   cancelled=cancelled)
    return SearchResult(
        logl=logl,
        iterations=iterations,
        moves_accepted=moves_total,
        insertions_tried=insertions_total,
        converged=converged,
        logl_trace=trace,
        cancelled=cancelled,
    )
