"""Command-line interface: ``python -m repro <command>``.

Commands mirror the RAxML-Light/ExaML workflow the paper describes:

* ``infer``    — maximum-likelihood tree search on a FASTA/PHYLIP/binary
  alignment, optionally partitioned, under Γ or PSR, with checkpointing
  (``-M`` selects per-partition branch lengths, ``-Q`` monolithic data
  distribution for the simulated-performance report);
* ``simulate`` — generate a benchmark alignment along a random tree;
* ``convert``  — convert alignments between FASTA/PHYLIP/binary formats;
* ``report``   — run a search and price its region log: the Table-I
  style communication breakdown plus simulated runtimes for both engines;
* ``profile``  — run the engines live on real processes with span tracing
  on, across rank counts and data distributions (``--ranks``,
  ``--dist``), and read each traced run three ways: busy/wait
  attribution with speedup/efficiency tables next to the analytic
  model's predicted ordering, a kernel hotspot table (per-op time share,
  achieved vs modeled GFLOP/s, roofline, CLV memory against its
  documented band), and measured collective bytes reconciled against the
  analytic comm models; one markdown report, one ``kind: profile`` bench
  record, exit 1 when the band or a reconciliation fails
  (``--from-trace`` re-reads a trace root);
* ``watch``    — live per-rank table (phase, logL, beat age, stall
  flags) over a monitored run's heartbeat channel;
* ``runs``     — query the persistent run registry (``.repro_runs/``):
  ``list`` history, ``show`` one manifest, ``compare`` bench metrics.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _read_file(path: str, error: type, read=Path.read_text):
    """``read(Path(path))``; a file that cannot be read raises ``error``
    (a :class:`~repro.errors.ReproError`) instead of an ``OSError``."""
    try:
        return read(Path(path))
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_alignment(path: str):
    from repro.errors import AlignmentError

    return _read_file(path, AlignmentError, _read_alignment)


def _read_alignment(p: Path):
    from repro.seq.binary import read_binary_alignment
    from repro.seq.io_fasta import read_fasta
    from repro.seq.io_phylip import read_phylip

    suffix = p.suffix.lower()
    if suffix in (".fasta", ".fa", ".fna"):
        return read_fasta(p)
    if suffix in (".phy", ".phylip"):
        return read_phylip(p)
    if suffix in (".rba", ".bin"):
        return read_binary_alignment(p)
    # sniff
    head = p.read_bytes()[:4]
    if head == b"RBA1":
        return read_binary_alignment(p)
    if head[:1] == b">":
        return read_fasta(p)
    return read_phylip(p)


def _write_alignment(alignment, path: str) -> None:
    from repro.seq.binary import write_binary_alignment
    from repro.seq.io_fasta import write_fasta
    from repro.seq.io_phylip import write_phylip

    p = Path(path)
    suffix = p.suffix.lower()
    if suffix in (".fasta", ".fa", ".fna"):
        write_fasta(alignment, p)
    elif suffix in (".phy", ".phylip"):
        write_phylip(alignment, p)
    elif suffix in (".rba", ".bin"):
        write_binary_alignment(alignment, p)
    else:
        raise SystemExit(f"cannot infer output format from {path!r}")


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.errors import NewickError
    from repro.likelihood.backend import SequentialBackend
    from repro.likelihood.partitioned import PartitionedLikelihood
    from repro.search.checkpoint import load_checkpoint, restore_into, save_checkpoint
    from repro.search.search import SearchConfig, hill_climb
    from repro.seq.partitions import read_partition_file
    from repro.tree.newick import parse_newick, write_newick
    from repro.tree.random_trees import random_topology

    if args.checkpoint_every and not args.checkpoint:
        raise SystemExit("--checkpoint-every needs --checkpoint PATH")
    if (args.checkpoint and args.engine != "sequential"
            and not (args.checkpoint_every or args.cancellable)):
        raise SystemExit(
            "--checkpoint on a distributed engine needs --checkpoint-every "
            "or --cancellable (only the sequential engine writes a final "
            "checkpoint)")
    if args.engine != "sequential" and args.resume:
        raise SystemExit("--resume is only supported with --engine sequential")
    if args.supervise and args.engine == "sequential":
        raise SystemExit("--supervise needs a distributed engine")
    if args.supervise and args.sanitize:
        raise SystemExit("--supervise does not compose with --sanitize yet")
    # a supervised attempt builds its own monitor, with default thresholds
    for name in ("monitor_dir", "diagnosis_out", "straggler_after",
                 "stall_after"):
        if args.supervise and getattr(args, name) is not None:
            raise SystemExit(f"--{name.replace('_', '-')} is ignored under "
                             f"--supervise (each attempt monitors itself)")
    if args.sanitize and args.engine != "decentralized":
        raise SystemExit(
            "--sanitize needs --engine decentralized: only the "
            "decentralized scheme runs replica-symmetric collectives "
            "(fork-join is master/worker-asymmetric by design)")
    if args.monitor and args.engine == "sequential":
        raise SystemExit(
            "--monitor needs a distributed engine (the heartbeat "
            "channel observes per-rank collectives)")
    if args.cancellable and args.engine == "sequential":
        raise SystemExit(
            "--cancellable needs a distributed engine (the launcher "
            "forwards SIGTERM into the rank mesh)")
    if args.trace_dir and args.engine == "sequential":
        raise SystemExit(
            "--trace-dir needs a distributed engine (spans are "
            "per-rank; use 'repro profile' for single-host tracing)")
    if args.cancellable:
        # Arm the cooperative flag before any heavy setup: a SIGTERM
        # that races against job startup (e.g. a service cancelling a
        # just-launched job) must be remembered, not die by default
        # action — the launcher's relay takes over once the mesh is up,
        # and forked ranks inherit both this handler and a set flag.
        from repro.engines.cancel import install_sigterm_flag, reset_cancel

        reset_cancel()  # a stale flag from an earlier in-process run
        install_sigterm_flag()

    alignment = _load_alignment(args.alignment)
    scheme = read_partition_file(args.partitions) if args.partitions else None
    if args.starting_tree:
        tree = parse_newick(_read_file(args.starting_tree, NewickError))
    else:
        tree = random_topology(alignment.taxa, rng=args.seed)
    # Every engine searches the tree this string parses to: node ids (and
    # so the climb's visiting order) are those of the parse, not of the
    # object the string was written from.
    start_newick = write_newick(tree)
    tree = parse_newick(start_newick)
    lik = PartitionedLikelihood.build(
        alignment,
        tree,
        scheme=scheme,
        rate_mode=args.model,
        per_partition_branches=args.per_partition_branches,
    )
    config = SearchConfig(
        max_iterations=args.iterations,
        radius_max=args.radius,
        optimize_gtr=not args.no_gtr,
        epsilon=args.epsilon,
        checkpoint_every=args.checkpoint_every,
        # cancellable runs write a *final* checkpoint at the cancel
        # boundary even without periodic checkpointing enabled
        checkpoint_path=(args.checkpoint
                         if (args.checkpoint_every or args.cancellable)
                         else None),
    )

    from repro.obs.context import current_trace_id, new_trace_id

    # End-to-end trace context: the serve daemon hands us its trace_id
    # (flag or env) so our rank spans merge with its scheduler spans;
    # a standalone traced run mints its own.
    trace_id = args.trace_id or current_trace_id()
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir is not None and not trace_id:
        trace_id = new_trace_id()

    registry = run_id = None
    if not args.no_register:
        from repro.obs.registry import RunRegistry

        registry = RunRegistry()
        fields = {
            "command": "infer",
            "engine": args.engine,
            "ranks": args.ranks if args.engine != "sequential" else 1,
            "dist": args.dist,
            "seed": args.seed,
            "alignment": str(args.alignment),
            "config": {
                "iterations": args.iterations, "radius": args.radius,
                "epsilon": args.epsilon, "model": args.model,
                "per_partition_branches": args.per_partition_branches,
            },
            "inject_failure": args.inject_failure,
        }
        if trace_id:
            fields["trace_id"] = trace_id
        if trace_dir is not None:
            fields["trace_dir"] = str(trace_dir)
        if args.run_id:
            # attach to a pre-registered manifest (the serve daemon
            # registers the job first, then launches this process)
            run_id = args.run_id
            registry.attach(run_id, **fields)
            print(f"run {run_id} attached under {registry.root}",
                  file=sys.stderr)
        else:
            run_id = registry.register(fields)
            print(f"run {run_id} registered under {registry.root}",
                  file=sys.stderr)

    if args.engine != "sequential":
        from repro.engines.launch import RunConfig, first_survivor, launch
        from repro.errors import MasterLostError

        fault_plan = None
        if args.inject_failure:
            from repro.par.faultcomm import FaultPlan

            fault_plan = FaultPlan.parse(args.inject_failure)
        run_cfg = RunConfig(
            args.engine, lik.parts, lik.taxa, start_newick, args.ranks,
            config=config, dist_kind=args.dist,
            n_branch_sets=lik.n_branch_sets,
            fault_plan=fault_plan,
            detect_timeout=args.detect_timeout, sanitize=args.sanitize,
            beat_interval=args.beat_interval, cancellable=args.cancellable,
            trace_dir=trace_dir, trace_id=trace_id,
        )

        if args.supervise:
            # The escalation ladder owns the whole run lifecycle: per-
            # attempt monitoring, checkpoint-resume restarts, degraded
            # relaunches, and the attempt chain in the registry.
            from repro.supervise import RecoveryPolicy, Supervisor

            policy = RecoveryPolicy(
                max_attempts=args.max_attempts,
                min_ranks=args.min_ranks,
                backoff_base_s=args.backoff,
                attempt_timeout_s=args.attempt_timeout,
            )
            work_dir = (registry.root / run_id / "supervise"
                        if registry is not None else None)
            supervisor = Supervisor(
                policy, work_dir=work_dir, registry=registry, run_id=run_id,
                rng=args.seed, monitor=args.monitor,
                log=lambda msg: print(msg, file=sys.stderr),
            )
            outcome = supervisor.run(run_cfg)
            if registry is not None:
                result = ({"logl": outcome.result.logl,
                           "iterations": outcome.result.iterations,
                           "recoveries": outcome.result.recoveries,
                           "restarts": outcome.result.restarts}
                          if outcome.result is not None
                          and (outcome.ok or outcome.cancelled)
                          else None)
                status = ("completed" if outcome.ok
                          else "cancelled" if outcome.cancelled
                          else "failed")
                fields = {"status": status, "result": result}
                if outcome.cancelled and config.checkpoint_path:
                    fields["cancel"] = {
                        "checkpoint": str(config.checkpoint_path)}
                registry.update(run_id, **fields)
            if outcome.cancelled:
                from repro.engines.cancel import CANCEL_EXIT_CODE

                res = outcome.result
                print(f"cancelled after {res.iterations} iteration(s), "
                      f"logL = {res.logl:.4f}", file=sys.stderr)
                return CANCEL_EXIT_CODE
            if not outcome.ok:
                print(outcome.error, file=sys.stderr)
                if outcome.diagnosis:
                    print(f"first stall diagnosis: "
                          f"{outcome.diagnosis.get('message')}",
                          file=sys.stderr)
                return 1
            res = outcome.result
            if len(outcome.attempts) > 1:
                final = outcome.attempts[-1]
                print(f"supervised: succeeded on attempt "
                      f"{final.attempt} (tier {final.tier}, "
                      f"{final.ranks} rank(s), {final.dist})",
                      file=sys.stderr)
            newick = res.newick
            if args.output:
                Path(args.output).write_text(newick + "\n")
            else:
                print(newick)
            print(f"logL = {res.logl:.4f} after {res.iterations} "
                  f"iterations ({args.engine} supervised, "
                  f"{len(outcome.attempts)} attempt(s))", file=sys.stderr)
            return 0

        monitor_dir = None
        monitor_thread = None
        if args.monitor:
            from repro.obs import monitor

            monitor_dir = args.monitor_dir or (
                str(registry.root / run_id / "monitor") if run_id
                else "monitor")
            Path(monitor_dir).mkdir(parents=True, exist_ok=True)
            straggler_s, stall_s = args.straggler_after, args.stall_after
            monitor_thread = monitor.MonitorThread(
                monitor_dir,
                diagnosis_path=args.diagnosis_out,
                straggler_after=(monitor.DEFAULT_STRAGGLER_AFTER
                                 if straggler_s is None else straggler_s),
                stall_after=(monitor.DEFAULT_STALL_AFTER
                             if stall_s is None else stall_s),
                on_diagnosis=lambda d: print(
                    f"[monitor] {d.status}: {d.message}", file=sys.stderr),
            ).start()
            if registry is not None:
                registry.update(run_id, monitor_dir=str(monitor_dir))
            print(f"monitoring -> {monitor_dir} "
                  f"(watch with: repro watch {run_id or monitor_dir})",
                  file=sys.stderr)
        status, res = "failed", None
        failure = None
        try:
            results = launch(replace(run_cfg, monitor_dir=monitor_dir))
            res = first_survivor(results)
            if res.failed_ranks:
                print(
                    f"rank(s) {list(res.failed_ranks)} failed; recovered "
                    f"in-run ({res.recoveries} recovery round(s), "
                    f"{sum(r is not None for r in results)} survivor(s))",
                    file=sys.stderr,
                )
            if res.restarts:
                print(f"worker failure: restarted {res.restarts} time(s) "
                      f"from checkpoint", file=sys.stderr)
            status = "cancelled" if res.cancelled else "completed"
        except MasterLostError as exc:
            # Typed catastrophic outcome: record *why* the run failed
            # (and whether a checkpoint survives) in the manifest, so
            # `repro runs show` explains the failure without log spelunking.
            failure = {
                "error": "master_lost",
                "message": str(exc),
                "failed_ranks": sorted(exc.failed_ranks),
                "checkpoint": exc.checkpoint,
            }
            print(f"fork-join master lost: {exc}", file=sys.stderr)
            if exc.checkpoint:
                print(f"restart with --supervise (or resume from "
                      f"{exc.checkpoint})", file=sys.stderr)
        finally:
            diagnosis = None
            if monitor_thread is not None:
                monitor_thread.poll_once()  # final state, post-join
                stall = monitor_thread.stop()
                if stall is not None:
                    diagnosis = stall.to_dict()
                    print(f"[monitor] diagnosis: {stall.message} "
                          f"(written to {monitor_thread.diagnosis_path})",
                          file=sys.stderr)
            if registry is not None:
                result = (
                    {
                        "logl": res.logl,
                        "iterations": res.iterations,
                        "recoveries": res.recoveries,
                        "failed_ranks": list(res.failed_ranks),
                        "restarts": res.restarts,
                    }
                    if res is not None else None
                )
                fields = {"status": status, "result": result,
                          "diagnosis": diagnosis}
                if failure is not None:
                    fields["failure"] = failure
                if status == "cancelled" and config.checkpoint_path:
                    fields["cancel"] = {
                        "checkpoint": str(config.checkpoint_path)}
                registry.update(run_id, **fields)
        if res is None:
            return 1
        if res.cancelled:
            from repro.engines.cancel import CANCEL_EXIT_CODE

            print(f"cancelled after {res.iterations} iteration(s), "
                  f"logL = {res.logl:.4f}"
                  + (f"; checkpoint at {config.checkpoint_path}"
                     if config.checkpoint_path else ""),
                  file=sys.stderr)
            return CANCEL_EXIT_CODE
        newick = res.newick
        if args.output:
            Path(args.output).write_text(newick + "\n")
        else:
            print(newick)
        print(f"logL = {res.logl:.4f} after {res.iterations} iterations "
              f"({args.engine} on {args.ranks} ranks)", file=sys.stderr)
        return 0

    backend = SequentialBackend(lik)
    if args.resume:
        meta, arrays = load_checkpoint(args.resume)
        restore_into(lik, meta, arrays)
        backend.tree = lik.tree
        tree = lik.tree
        print(f"resumed from {args.resume} (iteration {meta['iteration']})",
              file=sys.stderr)
    result = hill_climb(backend, config)
    newick = write_newick(tree)
    if registry is not None:
        registry.update(run_id, status="completed", result={
            "logl": result.logl, "iterations": result.iterations,
            "converged": result.converged,
        })
    if args.output:
        Path(args.output).write_text(newick + "\n")
    else:
        print(newick)
    print(f"logL = {result.logl:.4f} after {result.iterations} iterations "
          f"({'converged' if result.converged else 'iteration cap'})",
          file=sys.stderr)
    if args.checkpoint:
        save_checkpoint(args.checkpoint, lik, result.iterations,
                        config.radius_max, result.logl)
        print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.model.substitution import GTR
    from repro.seq.simulate import simulate_alignment
    from repro.tree.newick import write_newick
    from repro.tree.random_trees import yule_tree

    rng = np.random.default_rng(args.seed)
    taxa = [f"t{i:04d}" for i in range(args.taxa)]
    tree = yule_tree(taxa, rng=rng, mean_branch_length=args.branch_length)
    model = GTR(
        np.append(rng.uniform(0.5, 4.0, 5), 1.0), rng.dirichlet(np.full(4, 20.0))
    )
    alignment = simulate_alignment(
        tree, model, args.sites, rng=rng,
        gamma_alpha=args.alpha if args.alpha > 0 else None,
    )
    _write_alignment(alignment, args.output)
    if args.tree_out:
        Path(args.tree_out).write_text(write_newick(tree) + "\n")
    print(f"wrote {args.taxa} x {args.sites} alignment to {args.output}",
          file=sys.stderr)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    alignment = _load_alignment(args.input)
    _write_alignment(alignment, args.output)
    print(f"{args.input} -> {args.output} "
          f"({alignment.n_taxa} taxa x {alignment.n_sites} sites)",
          file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.likelihood.backend import SequentialBackend
    from repro.likelihood.partitioned import PartitionedLikelihood
    from repro.perf.costmodel import WorkloadMeta
    from repro.perf.price import format_table1, simulate_runtime
    from repro.dist.distributions import auto_distribution
    from repro.par.machine import HITS_CLUSTER
    from repro.search.search import SearchConfig, hill_climb
    from repro.seq.partitions import read_partition_file
    from repro.tree.random_trees import random_topology

    alignment = _load_alignment(args.alignment)
    scheme = read_partition_file(args.partitions) if args.partitions else None
    tree = random_topology(alignment.taxa, rng=args.seed)
    lik = PartitionedLikelihood.build(
        alignment, tree, scheme=scheme, rate_mode=args.model,
        per_partition_branches=args.per_partition_branches,
    )
    backend = SequentialBackend(lik)
    hill_climb(backend, SearchConfig(max_iterations=args.iterations,
                                     radius_max=args.radius))

    print("fork-join communication breakdown (Table I):")
    print(format_table1({args.model: backend.log}))

    meta = WorkloadMeta.from_likelihood(lik)
    print(f"\nsimulated runtimes on {HITS_CLUSTER.name}:")
    print(f"{'ranks':>7}{'ExaML [s]':>12}{'RAxML-Light [s]':>17}{'speedup':>9}")
    for ranks in args.ranks:
        dist = auto_distribution(meta.cost_patterns, ranks,
                                 use_mps=args.mps or None)
        ex = simulate_runtime(backend.log, "decentralized", meta, HITS_CLUSTER, dist)
        li = simulate_runtime(backend.log, "forkjoin", meta, HITS_CLUSTER, dist)
        print(f"{ranks:>7}{ex.total_s:>12.3f}{li.total_s:>17.3f}"
              f"{li.total_s / ex.total_s:>9.2f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Traced live runs read three ways: wait attribution and scaling,
    kernel hotspots, byte reconciliation (exit 1 if a check fails)."""
    import json

    if args.from_trace is not None:
        return _profile_from_trace(args)
    if args.alignment is None:
        print("profile needs an alignment (live mode) or --from-trace",
              file=sys.stderr)
        return 2

    from repro.likelihood.partitioned import PartitionedLikelihood
    from repro.obs.scaling import run_scaling
    from repro.search.search import SearchConfig
    from repro.seq.partitions import read_partition_file
    from repro.tree.newick import write_newick
    from repro.tree.random_trees import random_topology

    alignment = _load_alignment(args.alignment)
    scheme = read_partition_file(args.partitions) if args.partitions else None
    tree = random_topology(alignment.taxa, rng=args.seed)

    def build_likelihood() -> PartitionedLikelihood:
        # fresh per configuration: the search mutates model state
        return PartitionedLikelihood.build(
            alignment, tree, scheme=scheme, rate_mode=args.model,
            per_partition_branches=args.per_partition_branches,
        )

    result = run_scaling(
        build_likelihood, write_newick(tree),
        SearchConfig(max_iterations=args.iterations, radius_max=args.radius),
        engines=(["decentralized", "forkjoin"] if args.engine == "both"
                 else [args.engine]),
        ranks_list=args.ranks,
        dist_kinds=args.dist,
        trace_root=args.trace_out,
        trace_capacity=args.trace_capacity,
        chrome=(args.trace_format == "chrome"),
        workload_info={
            "alignment": str(args.alignment),
            "taxa": alignment.n_taxa,
            "sites": alignment.n_sites,
            "partitions": len(scheme) if scheme else 1,
            "model": args.model,
        },
        progress=lambda msg: print(msg, file=sys.stderr),
        summary=args.summary,
    )
    _write_report(args, result.format_markdown(top=args.top))
    bench = result.to_bench()
    if args.bench_out:
        Path(args.bench_out).write_text(json.dumps(bench, indent=2) + "\n")
        print(f"bench record written to {args.bench_out}", file=sys.stderr)
    if not args.no_register:
        from repro.obs.registry import RunRegistry

        # the bench snapshot is what `repro runs compare` reads
        registry = RunRegistry()
        run_id = registry.register({
            "command": "profile",
            "engine": args.engine,
            # scalars, as every other command registers them
            "ranks": " ".join(map(str, args.ranks)),
            "dist": " ".join(args.dist),
            "seed": args.seed,
            "alignment": str(args.alignment),
            "config": {"iterations": args.iterations,
                       "radius": args.radius, "model": args.model},
            "status": "completed",
            "result": {"logl": {p.label: p.logl for p in result.points}},
            "trace_dir": str(args.trace_out),
        })
        registry.record_bench(run_id, bench)
        print(f"run {run_id} registered with bench snapshot under "
              f"{registry.root}", file=sys.stderr)

    dropped = sum(p.dropped_spans for p in result.points)
    if dropped:
        print(f"WARNING: {dropped} span(s) dropped by the tracer ring "
              f"buffer — the traces are truncated and per-rank shares "
              f"are unreliable; raise --trace-capacity", file=sys.stderr)
    disagreements = [
        (dist, n) for dist, per_ranks in result.agreement.items()
        for n, ok in per_ranks.items() if not ok and int(n) > 1
    ]
    if disagreements:
        print(f"note: measured comm-heavier engine disagrees with the "
              f"model at {disagreements}", file=sys.stderr)
    problems = result.problems()
    for problem in problems:
        print(f"profile check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _profile_from_trace(args: argparse.Namespace) -> int:
    """``profile --from-trace``: one kernel table per traced directory."""
    import json

    from repro.obs.hotspots import hotspot_metrics, reports_under

    reports = reports_under(args.from_trace)
    if not reports:
        print(f"no trace-rank*.jsonl under {args.from_trace}",
              file=sys.stderr)
        return 2
    _write_report(args, "\n\n".join(
        f"# {label}\n\n{report.format_markdown(top=args.top, level=2)}"
        for label, report in reports.items()))
    if args.bench_out:
        # kernel tables only, no points: not a live "profile" record
        bench = {"kind": "kernel_hotspots",
                 "from_trace": str(args.from_trace),
                 "hotspots": {label: r.to_dict()
                              for label, r in reports.items()},
                 "metrics": hotspot_metrics(reports)}
        Path(args.bench_out).write_text(json.dumps(bench, indent=2) + "\n")
        print(f"bench record written to {args.bench_out}", file=sys.stderr)
    return 0


def _write_report(args: argparse.Namespace, markdown: str) -> None:
    if args.report_out:
        Path(args.report_out).write_text(markdown + "\n")
        print(f"markdown report written to {args.report_out}",
              file=sys.stderr)
    else:
        print(markdown)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos campaign over the supervised engines."""
    from repro.engines.launch import RunConfig
    from repro.search.search import SearchConfig
    from repro.supervise.chaos import run_campaign
    from repro.supervise.policy import RecoveryPolicy

    if args.alignment:
        from repro.likelihood.partitioned import PartitionedLikelihood
        from repro.seq.partitions import read_partition_file
        from repro.tree.newick import write_newick
        from repro.tree.random_trees import random_topology

        alignment = _load_alignment(args.alignment)
        scheme = (read_partition_file(args.partitions)
                  if args.partitions else None)
        tree = random_topology(alignment.taxa, rng=args.seed)
        lik = PartitionedLikelihood.build(
            alignment, tree, scheme=scheme, rate_mode=args.model)
        parts, taxa, newick = lik.parts, lik.taxa, write_newick(tree)
    else:
        # built-in synthetic workload: small enough that a 20-run
        # campaign with recoveries finishes in CI minutes
        from repro.datasets import partitioned_workload
        from repro.tree.newick import write_newick

        wl = partitioned_workload(2, n_taxa=8, sites_per_partition=30)
        lik = wl.build_likelihood(args.model)
        parts, taxa, newick = lik.parts, lik.taxa, write_newick(wl.tree)

    config = SearchConfig(
        max_iterations=args.iterations, radius_max=args.radius,
        model_opt=False, epsilon=1e-6, branch_passes=3)
    policy = RecoveryPolicy(
        max_attempts=args.max_attempts, min_ranks=args.min_ranks,
        backoff_base_s=0.05, backoff_max_s=0.5,
        attempt_timeout_s=args.attempt_timeout)
    report = run_campaign(
        RunConfig(args.engine, parts, taxa, newick, args.ranks,
                  config=config, dist_kind=args.dist,
                  detect_timeout=args.detect_timeout),
        n_runs=args.runs, seed=args.seed, policy=policy, out_dir=args.out,
        max_faults=args.max_faults, monitor=args.monitor,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    print(report.format_table())
    if args.out:
        print(f"campaign report + per-run manifests under {args.out}",
              file=sys.stderr)
    if not report.ok:
        print(f"chaos invariant violated in "
              f"{len(report.violations)} run(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Live per-rank table over a monitored run's heartbeat channel."""
    from repro.obs.monitor import resolve_monitor_dir, watch_loop

    if args.url:
        return _watch_events(args.url, args.run)
    try:
        monitor_dir = resolve_monitor_dir(args.run, root=args.root)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc
    diag = watch_loop(
        monitor_dir,
        interval=args.interval,
        once=args.once,
        max_polls=args.polls,
        straggler_after=args.straggler_after,
        stall_after=args.stall_after,
        beat_timeout=args.beat_timeout,
    )
    return 1 if diag.is_stall else 0


def _watch_events(url: str, job_id: str) -> int:
    """Follow a served job's live event stream over HTTP."""
    from repro.serve.client import ServeClientError, stream_events

    final = None
    try:
        for event in stream_events(url, job_id):
            kind = event.get("event", "?")
            if kind == "keepalive":
                continue
            source = event.get("source", "?")
            detail = ", ".join(
                f"{k}={event[k]}" for k in sorted(event)
                if k not in ("event", "source") and event[k] is not None)
            print(f"[{source}] {kind}" + (f": {detail}" if detail else ""))
            if kind == "terminal":
                final = event.get("status")
    except ServeClientError as exc:
        raise SystemExit(str(exc)) from exc
    except KeyboardInterrupt:
        return 130
    return 0 if final == "completed" else 1


def _cmd_runs(args: argparse.Namespace) -> int:
    """Query the persistent run registry."""
    import json

    from repro.obs.registry import (
        RunRegistry,
        compare_runs,
        format_attempt_chain,
        format_compare_table,
    )

    registry = RunRegistry(args.root)
    if args.runs_command == "list":
        manifests = registry.list_runs()
        if not manifests:
            print(f"no runs under {registry.root}", file=sys.stderr)
            return 0
        header = (f"{'run id':<24} {'created':<20} {'cmd':<8} "
                  f"{'engine':<14} {'ranks':>5} {'status':<10} "
                  f"{'logL':>14} {'bench':>5} {'trace':<8}")
        print(header)
        print("-" * len(header))
        for m in manifests:
            result = m.get("result") or {}
            logl = result.get("logl")
            logl_s = f"{logl:.4f}" if isinstance(logl, (int, float)) else "-"
            has_bench = "yes" if m.get("bench_path") else "-"
            trace_s = (m.get("trace_id") or "-")[:8]
            print(f"{m.get('run_id', '?'):<24} "
                  f"{m.get('created', '?'):<20} "
                  f"{m.get('command', '?'):<8} "
                  f"{m.get('engine', '?'):<14} "
                  f"{str(m.get('ranks', '?')):>5} "
                  f"{m.get('status', '?'):<10} "
                  f"{logl_s:>14} {has_bench:>5} {trace_s:<8}")
        return 0
    if args.runs_command == "show":
        try:
            run_id = registry.resolve(args.run)
            manifest = registry.load(run_id)
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from exc
        print(json.dumps(manifest, indent=2))
        trace_id = manifest.get("trace_id")
        if trace_id:
            # the lifecycle identity stamped at submission: joins this
            # run to its merged daemon + per-rank trace streams
            print()
            print(f"trace_id: {trace_id}")
            print(f"merged trace: python -c \"from repro.obs import "
                  f"merge_job_trace; merge_job_trace("
                  f"'{registry.root / run_id}')\"")
        chain = format_attempt_chain(manifest)
        if chain:
            print()
            print(chain)
        return 0
    if args.runs_command == "gc":
        if args.keep_days is None and args.keep_last is None:
            raise SystemExit("runs gc needs --keep-days and/or --keep-last")
        pruned = registry.gc(keep_days=args.keep_days,
                             keep_last=args.keep_last,
                             dry_run=args.dry_run)
        verb = "would prune" if args.dry_run else "pruned"
        for run_id in pruned:
            print(f"{verb} {run_id}")
        print(f"{verb} {len(pruned)} run(s) under {registry.root} "
              f"(running/queued runs are never touched)", file=sys.stderr)
        return 0
    # compare
    try:
        comparison = compare_runs(registry, args.a, args.b)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc
    print(format_compare_table(comparison))
    if args.out:
        Path(args.out).write_text(json.dumps(comparison, indent=2) + "\n")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Offline service-level report from registry manifests alone."""
    import json

    from repro.obs.slo import collect_job_stats, compute_slo, write_report

    stats = collect_job_stats(args.root)
    report = compute_slo(stats)
    if not stats:
        print("no jobs found under the registry root (nothing the "
              "serve daemon ever queued there)", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_markdown(), end="")
    write_report(report, json_path=args.out, md_path=args.md_out)
    for label, path in (("json", args.out), ("markdown", args.md_out)):
        if path:
            print(f"{label} report written to {path}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the inference service daemon (blocking; SIGTERM drains)."""
    from repro.serve import ServeDaemon, ServePolicy

    policy = ServePolicy(
        pool_ranks=args.pool_ranks,
        max_ranks_per_job=args.max_ranks_per_job,
        patterns_per_rank=args.patterns_per_rank,
        max_queue_depth=args.max_queue_depth,
        tenant_max_ranks=args.tenant_max_ranks,
        tenant_max_queued=args.tenant_max_queued,
        aging_rate=args.aging_rate,
        hol_grace_s=args.hol_grace,
    )
    supervise_jobs = None
    if args.no_supervise_jobs:
        supervise_jobs = False
    daemon = ServeDaemon(
        policy, root=args.root, host=args.host, port=args.port,
        tick_s=args.tick, supervise_jobs=supervise_jobs,
    )
    return daemon.run()


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a job to a running serve daemon over HTTP."""
    import json

    from repro.serve.client import (
        ServeClientError,
        submit_job,
        wait_for_job,
    )

    if args.spec:
        spec = json.loads(Path(args.spec).read_text())
        if args.alignment:
            spec["alignment"] = args.alignment
    else:
        if not args.alignment:
            raise SystemExit("submit needs an ALIGNMENT (or --spec FILE)")
        spec = {"alignment": str(Path(args.alignment).resolve())}
    for key in ("engine", "model", "dist", "tenant"):
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    for key in ("ranks", "priority", "seed", "iterations",
                "radius", "epsilon"):
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    if args.partitions:
        spec["partitions"] = str(Path(args.partitions).resolve())
    if args.no_supervise:
        spec["supervise"] = False
    try:
        reply = submit_job(args.url, spec)
    except ServeClientError as exc:
        raise SystemExit(str(exc)) from exc
    job_id = reply["job_id"]
    print(f"job {job_id} queued ({reply['ranks']} rank(s) budgeted)",
          file=sys.stderr)
    if not args.wait:
        print(job_id)
        return 0
    try:
        manifest = wait_for_job(args.url, job_id, timeout=args.timeout)
    except ServeClientError as exc:
        raise SystemExit(str(exc)) from exc
    status = manifest.get("status")
    result = manifest.get("result") or {}
    print(f"job {job_id}: {status}"
          + (f", logL = {result['logl']:.4f}" if "logl" in result else ""),
          file=sys.stderr)
    print(job_id)
    return 0 if status == "completed" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    """Show one job (or the whole queue) of a running daemon."""
    import json

    from repro.serve.client import ServeClientError, get_job, list_jobs

    try:
        if args.job:
            print(json.dumps(get_job(args.url, args.job), indent=2))
            return 0
        reply = list_jobs(args.url)
    except ServeClientError as exc:
        raise SystemExit(str(exc)) from exc
    jobs = reply.get("jobs", [])
    if not jobs:
        print("no jobs", file=sys.stderr)
        return 0
    header = (f"{'job id':<24} {'status':<10} {'tenant':<10} "
              f"{'prio':>4} {'ranks':>5} {'engine':<14} note")
    print(header)
    print("-" * len(header))
    for row in jobs:
        print(f"{row.get('job_id', '?'):<24} {row.get('status', '?'):<10} "
              f"{str(row.get('tenant', '-')):<10} "
              f"{str(row.get('priority', '-')):>4} "
              f"{str(row.get('ranks', '-')):>5} "
              f"{str(row.get('engine', '-')):<14} "
              f"{row.get('scheduler_note', '')}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued or running job (cooperative checkpoint-stop)."""
    from repro.serve.client import ServeClientError, cancel_job

    try:
        reply = cancel_job(args.url, args.job)
    except ServeClientError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"job {reply['job_id']}: {reply['state']}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """replicheck: determinism & collective-consistency static analysis."""
    import json

    from repro.analysis import (
        PROFILES,
        RULES,
        Baseline,
        analyze_paths,
        to_sarif,
    )

    if args.rules:
        for rule_id, desc in sorted(RULES.items()):
            profile = next(p for p in ("replica", "concurrency")
                           if rule_id in PROFILES[p])
            print(f"{rule_id}  [{profile}] {desc}")
        return 0

    paths = args.paths
    if not paths:
        # default: the installed repro package itself
        import repro

        paths = [str(Path(repro.__file__).parent)]

    select = None
    if args.select:
        select = frozenset(
            r.strip().upper() for r in args.select.split(",") if r.strip())
        unknown = select - set(RULES)
        if unknown:
            raise SystemExit(f"unknown rule id(s): {sorted(unknown)}")
    order_safe = frozenset(
        n.strip() for n in (args.order_safe or "").split(",") if n.strip())

    baseline = (Baseline() if args.no_baseline
                else Baseline.load(args.baseline))
    report = analyze_paths(
        paths, baseline=baseline, profile=args.profile, select=select,
        exclude=tuple(args.exclude or ()), order_safe=order_safe)

    if args.write_baseline:
        new_baseline = Baseline.from_findings(
            report.findings + report.baselined
        )
        new_baseline.save(args.baseline)
        print(f"baseline with {len(new_baseline)} finding(s) written to "
              f"{args.baseline}", file=sys.stderr)
        return 0

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
    if args.sarif_out:
        Path(args.sarif_out).write_text(
            json.dumps(to_sarif(report, RULES), indent=2) + "\n")

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    if args.format == "sarif":
        print(json.dumps(to_sarif(report, RULES), indent=2))
        return report.exit_code

    for f in report.findings:
        print(f.format())
    for path, err in report.parse_errors:
        print(f"{path}: parse error: {err}")
    if args.verbose:
        for f in report.suppressed:
            print(f"[suppressed] {f.format()}")
        for f in report.baselined:
            print(f"[baselined] {f.format()}")
    for path, s in report.unjustified_suppressions:
        print(f"{path}:{s.pragma_line}: note: suppression for "
              f"{sorted(s.rules)} has no justification "
              f"(add `-- why this is replica-safe`)")
    for path, s in report.unused_suppressions:
        print(f"{path}:{s.pragma_line}: note: suppression for "
              f"{sorted(s.rules)} matches no finding (stale?)")
    print(f"{report.files_scanned} file(s) scanned: "
          f"{len(report.findings)} new, {len(report.suppressed)} "
          f"suppressed, {len(report.baselined)} baselined",
          file=sys.stderr)
    return report.exit_code


def _machine_ranks(text: str) -> int:
    """A rank count the reference machine can host (``report --ranks``)."""
    from repro.par.machine import HITS_CLUSTER

    ranks = int(text)
    if not 1 <= ranks <= HITS_CLUSTER.total_cores:
        raise argparse.ArgumentTypeError(
            f"{ranks} is not within 1..{HITS_CLUSTER.total_cores} "
            f"(cores of {HITS_CLUSTER.name})")
    return ranks


def _at_least(kind: type, low: float, strict: bool = False):
    """An argparse type: a ``kind`` value of at least ``low`` (above it
    with ``strict``), so an out-of-range number is a usage error naming
    its flag."""
    def parse(text: str):
        value = kind(text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"{text} is not {'>' if strict else '>='} {low}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <type> value"
    return parse


_COUNT = _at_least(int, 1)
_SECONDS = _at_least(float, 0, strict=True)


def _over_slow_fault(text: str) -> float:
    """``chaos --detect-timeout``: seconds above the sleep of a drawn slow
    or hang fault, which a shorter timeout would detect as a rank failure."""
    from repro.supervise.chaos import SLOW_FAULT_SECONDS

    return _at_least(float, SLOW_FAULT_SECONDS, strict=True)(text)


_over_slow_fault.__name__ = "float"  # argparse's "invalid float value"


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.thresholds import (
        DEFAULT_BEAT_INTERVAL,
        DEFAULT_BEAT_TIMEOUT,
        DEFAULT_STALL_AFTER,
        DEFAULT_STRAGGLER_AFTER,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExaML-paper reproduction: likelihood-based "
                    "phylogenetic inference with two parallelization schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="maximum-likelihood tree search")
    infer.add_argument("alignment", help="FASTA/PHYLIP/binary alignment")
    infer.add_argument("-q", "--partitions", help="RAxML-style partition file")
    infer.add_argument("-m", "--model", choices=["gamma", "psr", "none"],
                       default="gamma", help="rate heterogeneity (default Γ)")
    infer.add_argument("-M", dest="per_partition_branches", action="store_true",
                       help="per-partition branch lengths (the paper's -M)")
    infer.add_argument("-t", "--starting-tree", help="Newick starting tree")
    infer.add_argument("-n", "--iterations", type=int, default=10)
    infer.add_argument("-r", "--radius", type=int, default=5)
    infer.add_argument("-e", "--epsilon", type=float, default=0.1)
    infer.add_argument("--no-gtr", action="store_true",
                       help="skip GTR exchangeability optimization")
    infer.add_argument("-s", "--seed", type=int, default=42)
    infer.add_argument("-o", "--output", help="write best tree here")
    infer.add_argument("--checkpoint", metavar="PATH",
                       help="checkpoint file: the sequential engine writes "
                            "its final state here; the distributed engines "
                            "write only their --checkpoint-every and "
                            "--cancellable checkpoints here")
    infer.add_argument("--resume", help="resume from a checkpoint file")
    infer.add_argument("--engine",
                       choices=["sequential", "decentralized", "forkjoin"],
                       default="sequential",
                       help="run the search on one process or on a real "
                            "multi-process engine")
    infer.add_argument("--ranks", type=int, default=2,
                       help="process count for distributed engines")
    infer.add_argument("--dist", choices=["cyclic", "mps"], default="cyclic",
                       help="data distribution for distributed engines")
    infer.add_argument("--inject-failure", metavar="RANK@CALL[:MODE]",
                       help="kill (or :hang, or :slow — a transient "
                            "straggler) ranks at deterministic comm-call "
                            "numbers, e.g. '2@40' or '1@25:hang'; the "
                            "decentralized engine recovers in-run, fork-join "
                            "restarts from the last checkpoint")
    infer.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N",
                       help="write a periodic checkpoint every N search "
                            "iterations (needs --checkpoint)")
    infer.add_argument("--detect-timeout", type=_SECONDS, default=None,
                       metavar="SECONDS",
                       help="bounded-receive timeout for failure detection "
                            "(catches hung ranks; default 60)")
    infer.add_argument("--sanitize", action="store_true",
                       help="cross-check every collective across ranks "
                            "(tag, op, payload shape, previous result "
                            "hash) and fail fast with the first diverging "
                            "call on replica divergence; decentralized "
                            "engine only")
    infer.add_argument("--monitor", action="store_true",
                       help="run the live telemetry side channel: per-rank "
                            "heartbeats + streamed progress events, with a "
                            "parent-side monitor diagnosing hung ranks / "
                            "stragglers / global stalls during the run "
                            "(distributed engines only)")
    infer.add_argument("--monitor-dir", metavar="DIR",
                       help="heartbeat/progress directory (default: the "
                            "run's registry directory)")
    infer.add_argument("--beat-interval", type=_SECONDS, default=None,
                       metavar="SECONDS",
                       help="seconds between heartbeat rewrites "
                            f"(default {DEFAULT_BEAT_INTERVAL})")
    infer.add_argument("--straggler-after", type=_SECONDS, default=None,
                       metavar="SECONDS",
                       help="no state change for this long flags a rank "
                            "as a straggler (default "
                            f"{DEFAULT_STRAGGLER_AFTER})")
    infer.add_argument("--stall-after", type=_SECONDS, default=None,
                       metavar="SECONDS",
                       help="... and for this long, a stall; keep under "
                            "--detect-timeout so diagnosis precedes "
                            f"detection (default {DEFAULT_STALL_AFTER})")
    infer.add_argument("--diagnosis-out", metavar="PATH",
                       help="write the first stall diagnosis JSON here "
                            "(default: <monitor-dir>/diagnosis.json)")
    infer.add_argument("--no-register", action="store_true",
                       help="skip writing a manifest to the run registry "
                            "(.repro_runs/ or $REPRO_RUNS_DIR)")
    infer.add_argument("--run-id", metavar="ID",
                       help="attach to this (possibly pre-registered) "
                            "registry run id instead of minting a new "
                            "one; used by the serve daemon so a job's "
                            "manifest and its run are one document")
    infer.add_argument("--cancellable", action="store_true",
                       help="treat SIGTERM as a cooperative cancel: all "
                            "ranks agree to stop at the next iteration "
                            "boundary, a final checkpoint is written "
                            "(with --checkpoint PATH), the manifest is "
                            "marked 'cancelled', and the process exits "
                            "143 (distributed engines only)")
    infer.add_argument("--supervise", action="store_true",
                       help="run under the escalation-ladder supervisor: "
                            "in-mesh recovery first, then kill + restart "
                            "from the latest checkpoint with backoff, "
                            "then a degraded restart (fewer ranks, other "
                            "distribution), then durable failure with the "
                            "stall diagnosis in the registry manifest; "
                            "every attempt is chained into the manifest "
                            "(distributed engines only)")
    infer.add_argument("--max-attempts", type=_COUNT, default=4,
                       help="supervised launch budget, the first attempt "
                            "included (default 4)")
    infer.add_argument("--min-ranks", type=_COUNT, default=1,
                       help="rank quorum: in-mesh recovery may shrink the "
                            "mesh and finish in place only while at least "
                            "this many ranks survive; one fewer escalates "
                            "to a degraded restart (default 1)")
    infer.add_argument("--backoff", type=_at_least(float, 0), default=0.25,
                       metavar="SECONDS",
                       help="base retry backoff, doubled per attempt with "
                            "seeded jitter (default 0.25)")
    infer.add_argument("--attempt-timeout", type=_SECONDS, default=None,
                       metavar="SECONDS",
                       help="per-attempt wall-clock budget; a wedged "
                            "attempt is killed and classified instead of "
                            "hanging the supervisor (default: launcher "
                            "default, 600)")
    infer.add_argument("--trace-dir", metavar="DIR",
                       help="trace every rank's spans into this "
                            "directory (trace-rank<R>.jsonl; supervised "
                            "runs get one subdirectory per attempt), "
                            "mergeable into one Chrome trace with the "
                            "daemon's scheduler spans (distributed "
                            "engines only)")
    infer.add_argument("--trace-id", metavar="ID",
                       help="end-to-end trace context to stamp on every "
                            "span (default: $REPRO_TRACE_ID as set by "
                            "the serve daemon, else minted when "
                            "--trace-dir is given)")
    infer.set_defaults(func=_cmd_infer)

    sim = sub.add_parser("simulate", help="generate a benchmark alignment")
    sim.add_argument("-t", "--taxa", type=int, default=50)
    sim.add_argument("-l", "--sites", type=int, default=1000)
    sim.add_argument("-a", "--alpha", type=float, default=0.8,
                     help="Γ shape for site rates; <=0 disables")
    sim.add_argument("-b", "--branch-length", type=float, default=0.08)
    sim.add_argument("-s", "--seed", type=int, default=42)
    sim.add_argument("-o", "--output", required=True)
    sim.add_argument("--tree-out", help="also write the true tree")
    sim.set_defaults(func=_cmd_simulate)

    conv = sub.add_parser("convert", help="convert alignment formats")
    conv.add_argument("input")
    conv.add_argument("output")
    conv.set_defaults(func=_cmd_convert)

    rep = sub.add_parser("report", help="communication/runtime report")
    rep.add_argument("alignment")
    rep.add_argument("-q", "--partitions")
    rep.add_argument("-m", "--model", choices=["gamma", "psr", "none"],
                     default="gamma")
    rep.add_argument("-M", dest="per_partition_branches", action="store_true")
    rep.add_argument("-n", "--iterations", type=int, default=2)
    rep.add_argument("-r", "--radius", type=int, default=2)
    rep.add_argument("-s", "--seed", type=int, default=42)
    rep.add_argument("-Q", "--mps", action="store_true",
                     help="monolithic per-partition distribution")
    rep.add_argument("--ranks", type=_machine_ranks, nargs="+",
                     default=[48, 192, 768],
                     help="rank counts to price on the reference machine")
    rep.set_defaults(func=_cmd_report)

    prof = sub.add_parser(
        "profile",
        help="live traced runs across engines, rank counts and "
             "distributions, each read three ways: busy/wait attribution "
             "with speedup tables and the model's ordering, a kernel "
             "hotspot table with its checks, and model-vs-measured byte "
             "reconciliation; non-zero exit if a check fails")
    prof.add_argument("alignment", nargs="?", default=None,
                      help="FASTA/PHYLIP/binary alignment (omit with "
                           "--from-trace)")
    prof.add_argument("-q", "--partitions",
                      help="RAxML-style partition file")
    prof.add_argument("-m", "--model", choices=["gamma", "psr", "none"],
                      default="gamma")
    prof.add_argument("-M", dest="per_partition_branches",
                      action="store_true")
    prof.add_argument("-n", "--iterations", type=int, default=1)
    prof.add_argument("-r", "--radius", type=int, default=2)
    prof.add_argument("-s", "--seed", type=int, default=42)
    prof.add_argument("--engine",
                      choices=["decentralized", "forkjoin", "both"],
                      default="both",
                      help="which engine(s) to run (default both)")
    prof.add_argument("--ranks", type=_COUNT, nargs="+", default=[2],
                      help="rank counts to run (default 2); speedup is "
                           "relative to the smallest")
    prof.add_argument("--dist", choices=["cyclic", "mps"], nargs="+",
                      default=["cyclic"],
                      help="data distribution(s) to run")
    prof.add_argument("--trace-out", default="trace", metavar="DIR",
                      help="trace directory root, one subdirectory "
                           "<engine>-<dist>-r<N> per configuration "
                           "(default ./trace)")
    prof.add_argument("--trace-capacity", type=int, default=None,
                      help="per-rank span ring-buffer capacity")
    prof.add_argument("--trace-format", choices=["jsonl", "chrome"],
                      default="chrome",
                      help="'chrome' additionally writes a merged "
                           "Perfetto-loadable trace.chrome.json per "
                           "configuration (default); 'jsonl' keeps only "
                           "the per-rank streams")
    prof.add_argument("--summary", action="store_true",
                      help="print a per-rank attribution table (calls, "
                           "bytes, compute/wait/transfer shares) per "
                           "configuration to stderr")
    prof.add_argument("--top", type=int, default=None, metavar="N",
                      help="show only the N hottest ops per kernel table")
    prof.add_argument("--report-out", metavar="PATH",
                      help="write the markdown report here (default: "
                           "print to stdout)")
    prof.add_argument("--bench-out", metavar="PATH",
                      help="write the JSON bench record (kind profile) "
                           "here")
    prof.add_argument("--no-register", action="store_true",
                      help="skip writing a manifest (and the bench "
                           "snapshot) to the run registry")
    prof.add_argument("--from-trace", metavar="DIR", default=None,
                      help="re-read an existing trace root instead of "
                           "running: one kernel table per directory "
                           "holding trace-rank*.jsonl (no reconciliation, "
                           "no memory band, no registry entry)")
    prof.set_defaults(func=_cmd_profile)

    lint = sub.add_parser(
        "lint",
        help="replicheck: static analysis for replica-consistency "
             "hazards (unseeded RNG, unordered iteration, rank-"
             "conditional collectives, wall-clock control flow, "
             "order-dependent float accumulation)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to analyze (default: "
                           "the installed repro package)")
    lint.add_argument("--profile",
                      choices=["replica", "concurrency", "all"],
                      default="all",
                      help="rule group to run: replica-divergence rules "
                           "(R001-R006), the threaded-service "
                           "concurrency pack (R007-R011), or all "
                           "(default all)")
    lint.add_argument("--select", metavar="RULES",
                      help="comma-separated rule ids to run instead of "
                           "a profile (e.g. R002,R005)")
    lint.add_argument("--exclude", action="append", metavar="PATH",
                      help="path prefix to skip during discovery (may "
                           "repeat; e.g. tests/fixtures)")
    lint.add_argument("--order-safe", metavar="NAMES",
                      help="comma-separated extra order-safe consumer "
                           "names for R002 (project helpers that are "
                           "order-insensitive)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="finding output format (default text)")
    lint.add_argument("--sarif-out", metavar="PATH",
                      help="also write a SARIF 2.1.0 log here (for "
                           "GitHub code scanning upload)")
    lint.add_argument("--baseline", default="replicheck.baseline.json",
                      metavar="PATH",
                      help="committed baseline of tolerated findings "
                           "(default ./replicheck.baseline.json); only "
                           "findings NOT in it fail the gate")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore the baseline: report every finding")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept the current findings: write them to "
                           "--baseline and exit 0")
    lint.add_argument("--out", metavar="PATH",
                      help="also write the full JSON report here "
                           "(for CI artifacts)")
    lint.add_argument("--rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("-v", "--verbose", action="store_true",
                      help="also list suppressed and baselined findings")
    lint.set_defaults(func=_cmd_lint)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos campaign: N supervised runs under randomized "
             "multi-fault schedules (die/hang/slow, faults during "
             "recovery included), each asserted bitwise-identical to "
             "the undisturbed reference or cleanly failed at tier 3 "
             "with a named diagnosis — never hung, never partial")
    chaos.add_argument("alignment", nargs="?", default=None,
                       help="FASTA/PHYLIP/binary alignment (default: a "
                            "built-in small synthetic workload)")
    chaos.add_argument("-q", "--partitions",
                       help="RAxML-style partition file")
    chaos.add_argument("-m", "--model", choices=["gamma", "psr", "none"],
                       default="gamma")
    chaos.add_argument("-n", "--iterations", type=int, default=10)
    chaos.add_argument("-r", "--radius", type=int, default=2)
    chaos.add_argument("-s", "--seed", type=int, default=42,
                       help="campaign seed: fault schedules are a pure "
                            "function of it — replay a red campaign "
                            "exactly by reusing its seed (default 42)")
    chaos.add_argument("--runs", type=int, default=20,
                       help="number of chaos runs (default 20)")
    chaos.add_argument("--ranks", type=int, default=3,
                       help="mesh width per run (default 3)")
    chaos.add_argument("--engine",
                       choices=["decentralized", "forkjoin"],
                       default="decentralized")
    chaos.add_argument("--dist", choices=["cyclic", "mps"],
                       default="cyclic")
    chaos.add_argument("--out", default="chaos_out", metavar="DIR",
                       help="artifact directory: campaign report JSON, "
                            "per-run registry manifests with attempt "
                            "chains, supervisor work dirs (default "
                            "./chaos_out)")
    chaos.add_argument("--max-faults", type=int, default=3,
                       help="max faults drawn per schedule (default 3)")
    chaos.add_argument("--max-attempts", type=_COUNT, default=3,
                       help="supervised launch budget per run (default 3)")
    chaos.add_argument("--min-ranks", type=_COUNT, default=1,
                       help="rank quorum for in-mesh recovery (default 1)")
    chaos.add_argument("--attempt-timeout", type=_SECONDS, default=120.0,
                       metavar="SECONDS",
                       help="per-attempt wall-clock budget (default 120)")
    chaos.add_argument("--detect-timeout", type=_over_slow_fault,
                       default=6.0, metavar="SECONDS",
                       help="bounded-receive failure detection timeout; "
                            "must exceed the sleep of a drawn slow or "
                            "hang fault (default 6)")
    chaos.add_argument("--monitor", action="store_true",
                       help="run the heartbeat monitor per attempt so "
                            "timeout verdicts carry a stall diagnosis")
    chaos.set_defaults(func=_cmd_chaos)

    watch = sub.add_parser(
        "watch",
        help="live per-rank health table for a monitored run: phase, "
             "iteration, logL, collective call index, and a stall "
             "diagnosis (hung rank / straggler / global stall)")
    watch.add_argument("run",
                       help="run id, unique id prefix, 'latest', a run "
                            "directory, a monitor directory, or a "
                            "served job id")
    watch.add_argument("--root", metavar="DIR",
                       help="registry root to resolve run/job ids in "
                            "(default: $REPRO_RUNS_DIR or ./.repro_runs; "
                            "point it at a serve daemon's --root to "
                            "watch served jobs)")
    watch.add_argument("--url", metavar="URL",
                       help="follow the job's live event stream from a "
                            "serve daemon over HTTP "
                            "(GET /jobs/<id>/events) instead of reading "
                            "heartbeat files locally")
    watch.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="seconds between table refreshes "
                            "(default 1.0)")
    watch.add_argument("--once", action="store_true",
                       help="print one table and exit")
    watch.add_argument("--polls", type=int, default=None, metavar="N",
                       help="stop after N refreshes (default: until the "
                            "run reaches a terminal phase)")
    watch.add_argument("--straggler-after", type=float,
                       default=DEFAULT_STRAGGLER_AFTER, metavar="SECONDS",
                       help="no state change for this long flags a "
                            "straggler (default %(default)s)")
    watch.add_argument("--stall-after", type=float,
                       default=DEFAULT_STALL_AFTER, metavar="SECONDS",
                       help="... and for this long, a stall "
                            "(default %(default)s)")
    watch.add_argument("--beat-timeout", type=float,
                       default=DEFAULT_BEAT_TIMEOUT, metavar="SECONDS",
                       help="a heartbeat older than this means the rank "
                            "process is dead (default %(default)s)")
    watch.set_defaults(func=_cmd_watch)

    serve = sub.add_parser(
        "serve",
        help="run the inference service: a durable job queue + "
             "resource-aware scheduler + HTTP/JSON API multiplexing "
             "many inference jobs over a bounded rank pool; SIGTERM "
             "drains gracefully (stop admitting, let jobs finish)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="HTTP port (default 8642; 0 picks a free "
                            "one and logs it)")
    serve.add_argument("--root", metavar="DIR",
                       help="registry root holding the queue (default: "
                            "$REPRO_RUNS_DIR or ./.repro_runs)")
    serve.add_argument("--pool-ranks", type=int, default=4,
                       help="global rank pool shared by all running "
                            "jobs (default 4)")
    serve.add_argument("--max-ranks-per-job", type=int, default=0,
                       help="per-job rank cap (default: the whole pool)")
    serve.add_argument("--patterns-per-rank", type=int, default=2000,
                       help="auto-sizing target: compressed alignment "
                            "patterns per rank (default 2000)")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="admission control: reject submissions "
                            "beyond this many queued jobs (default 64)")
    serve.add_argument("--tenant-max-ranks", type=int, default=0,
                       help="max concurrently running ranks per tenant "
                            "(default: no quota)")
    serve.add_argument("--tenant-max-queued", type=int, default=0,
                       help="max queued jobs per tenant (default: no "
                            "quota)")
    serve.add_argument("--aging-rate", type=float, default=1.0 / 60.0,
                       metavar="PRIO_PER_S",
                       help="priority points a queued job gains per "
                            "second waited (default 1/60)")
    serve.add_argument("--hol-grace", type=float, default=30.0,
                       metavar="SECONDS",
                       help="how long the head-of-line job may be "
                            "backfilled past before the pool drains "
                            "for it (default 30)")
    serve.add_argument("--tick", type=float, default=0.2,
                       metavar="SECONDS",
                       help="scheduler tick interval (default 0.2)")
    serve.add_argument("--no-supervise-jobs", action="store_true",
                       help="launch jobs without the escalation-ladder "
                            "supervisor (overrides per-job specs)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit an inference job to a running serve daemon")
    submit.add_argument("alignment", nargs="?", default=None,
                        help="FASTA/PHYLIP/binary alignment path "
                             "(as seen by the daemon)")
    submit.add_argument("--spec", metavar="FILE",
                        help="JSON job spec file (flags override it)")
    submit.add_argument("--url", default="http://127.0.0.1:8642",
                        help="daemon base URL (default %(default)s)")
    submit.add_argument("-q", "--partitions",
                        help="RAxML-style partition file")
    submit.add_argument("--engine",
                        choices=["decentralized", "forkjoin"],
                        default=None)
    submit.add_argument("-m", "--model",
                        choices=["gamma", "psr", "none"], default=None)
    submit.add_argument("--dist", choices=["cyclic", "mps"], default=None)
    submit.add_argument("--ranks", type=int, default=None,
                        help="requested ranks (default: auto-sized "
                             "from the alignment pre-parse)")
    submit.add_argument("--priority", type=int, default=None,
                        help="higher runs earlier (default 0)")
    submit.add_argument("--tenant", default=None,
                        help="quota accounting bucket (default "
                             "'default')")
    submit.add_argument("-s", "--seed", type=int, default=None)
    submit.add_argument("-n", "--iterations", type=int, default=None)
    submit.add_argument("-r", "--radius", type=int, default=None)
    submit.add_argument("-e", "--epsilon", type=float, default=None)
    submit.add_argument("--no-supervise", action="store_true",
                        help="run the job without the supervisor ladder")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal; exit 0 "
                             "only on 'completed'")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds (default 600)")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="list a serve daemon's jobs (or show one)")
    status.add_argument("job", nargs="?", default=None,
                        help="job id (or unique prefix); omit to list")
    status.add_argument("--url", default="http://127.0.0.1:8642")
    status.set_defaults(func=_cmd_status)

    cancel = sub.add_parser(
        "cancel",
        help="cancel a queued or running job (running jobs stop "
             "cooperatively at the next iteration and keep a "
             "checkpoint)")
    cancel.add_argument("job", help="job id (or unique prefix)")
    cancel.add_argument("--url", default="http://127.0.0.1:8642")
    cancel.set_defaults(func=_cmd_cancel)

    slo = sub.add_parser(
        "slo",
        help="offline service-level report from registry manifests "
             "alone: queue-wait / turnaround percentiles, pool "
             "utilization, per-tenant fairness — no daemon needed")
    slo.add_argument("--root", metavar="DIR",
                     help="registry root holding the job manifests "
                          "(default: $REPRO_RUNS_DIR or ./.repro_runs)")
    slo.add_argument("--json", action="store_true",
                     help="print the report as JSON instead of markdown")
    slo.add_argument("--out", metavar="PATH",
                     help="also write the JSON report here")
    slo.add_argument("--md-out", metavar="PATH",
                     help="also write the markdown report here")
    slo.set_defaults(func=_cmd_slo)

    runs = sub.add_parser(
        "runs",
        help="the persistent run registry (.repro_runs/): list past "
             "runs, show a manifest, compare two runs' bench metrics")
    runs.add_argument("--root", metavar="DIR",
                      help="registry root (default: $REPRO_RUNS_DIR or "
                           "./.repro_runs)")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list registered runs")
    runs_list.set_defaults(func=_cmd_runs)
    runs_show = runs_sub.add_parser(
        "show", help="print a run's manifest as JSON")
    runs_show.add_argument("run",
                           help="run id, unique prefix, or 'latest'")
    runs_show.set_defaults(func=_cmd_runs)
    runs_gc = runs_sub.add_parser(
        "gc",
        help="prune old terminal run directories (never touches "
             "running or queued runs)")
    runs_gc.add_argument("--keep-days", type=float, default=None,
                         metavar="DAYS",
                         help="prune terminal runs older than this")
    runs_gc.add_argument("--keep-last", type=int, default=None,
                         metavar="N",
                         help="always keep the N most recent terminal "
                              "runs, regardless of age")
    runs_gc.add_argument("--dry-run", action="store_true",
                         help="list what would be pruned, delete nothing")
    runs_gc.set_defaults(func=_cmd_runs)
    runs_cmp = runs_sub.add_parser(
        "compare", help="bench-metric delta between two runs")
    runs_cmp.add_argument("a", help="baseline run id/prefix/'latest'")
    runs_cmp.add_argument("b", help="candidate run id/prefix/'latest'")
    runs_cmp.add_argument("--out", metavar="PATH",
                          help="also write the comparison as JSON here")
    runs_cmp.set_defaults(func=_cmd_runs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
