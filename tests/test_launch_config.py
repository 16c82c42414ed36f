"""RunConfig, the one launch entry and the per-rank runtime.

* ``RunConfig`` is typed: an unknown field is a ``TypeError`` and the
  engine-specific options raise a ``CommError`` naming the field;
* a default configuration hands both engines' rank functions the raw
  communicator — no wrapper on the uninstrumented path;
* the supervisor's attempt *k* differs from attempt 0 only in what the
  ladder owns;
* both engines close their runtime the same way (emit → flush), so
  rank 0's result names a stream that holds the kernel profile, and a
  traced rank's comm spans add up to its wire counters.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.datasets import partitioned_workload
from repro.engines.launch import RunConfig, first_survivor, launch
from repro.engines.runtime import RankRuntime
from repro.errors import CommError
from repro.par.comm import InterceptingComm
from repro.par.faultcomm import FaultPlan
from repro.par.mpcomm import run_mpi
from repro.search.search import SearchConfig
from repro.supervise import RecoveryPolicy, Supervisor
from repro.tree.newick import write_newick

ENGINES = ["decentralized", "forkjoin"]
QUICK = SearchConfig(max_iterations=1, radius_max=1, model_opt=False)


@pytest.fixture(scope="module")
def workload():
    wl = partitioned_workload(2, n_taxa=7, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    return lik.parts, lik.taxa, write_newick(wl.tree)


def _config(workload, engine, n_ranks=2, **options):
    return RunConfig(engine, *workload, n_ranks, config=QUICK, **options)


class TestRunConfig:
    def test_fields_are_the_launcher_keywords(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "engine", "parts", "taxa", "start_newick", "n_ranks", "config",
            "dist_kind", "n_branch_sets", "fault_plan", "detect_timeout",
            "max_restarts", "trace_dir", "trace_capacity", "trace_id",
            "sanitize", "monitor_dir", "beat_interval", "min_ranks",
            "resume_from", "timeout", "cancellable",
        ]

    def test_unknown_field_is_a_type_error(self, workload):
        with pytest.raises(TypeError, match="no_such_option"):
            _config(workload, "decentralized", no_such_option=1)

    def test_frozen(self, workload):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _config(workload, "decentralized").n_ranks = 3

    @pytest.mark.parametrize("engine,option,field", [
        ("forkjoin", {"sanitize": True}, "RunConfig.sanitize"),
        ("forkjoin", {"min_ranks": 2}, "RunConfig.min_ranks"),
        ("decentralized", {"max_restarts": 0}, "RunConfig.max_restarts"),
        ("sequential", {}, "RunConfig.engine"),
    ])
    def test_invalid_combination_names_the_field(self, workload, engine,
                                                 option, field):
        with pytest.raises(CommError, match=field):
            _config(workload, engine, **option)

    def test_paths_are_normalised_to_str(self, workload, tmp_path):
        cfg = _config(workload, "decentralized", trace_dir=tmp_path / "t",
                      monitor_dir=tmp_path / "m", resume_from=Path("c.npz"))
        assert cfg.trace_dir == str(tmp_path / "t")
        assert cfg.monitor_dir == str(tmp_path / "m")
        assert cfg.resume_from == "c.npz"
        assert not (tmp_path / "t").exists()  # made at launch, not here
        plain = _config(workload, "decentralized")
        assert plain.trace_dir is plain.monitor_dir is plain.resume_from is None


def _opened_comm_type(comm, cfg):
    return type(RankRuntime(cfg, comm.rank).open(comm)).__name__


class TestNoWrapperByDefault:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_ranks,expected", [(1, "SequentialComm"),
                                                   (2, "MPComm")])
    def test_default_config_gives_the_raw_communicator(self, workload, engine,
                                                       n_ranks, expected):
        cfg = _config(workload, engine, n_ranks)
        assert run_mpi(n_ranks, _opened_comm_type,
                       [cfg] * n_ranks) == [expected] * n_ranks

    def test_any_instrumentation_gives_the_one_wrapper(self, workload):
        cfg = _config(workload, "decentralized",
                      fault_plan=FaultPlan.kill(rank=1, at_call=10**9))
        assert run_mpi(2, _opened_comm_type, [cfg] * 2) == [
            InterceptingComm.__name__] * 2


class TestSupervisorAttemptConfig:
    LADDER_OWNED = {"n_ranks", "dist_kind", "fault_plan", "resume_from",
                    "monitor_dir", "trace_dir"}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_attempt_k_differs_only_in_what_the_ladder_owns(
            self, workload, engine, tmp_path):
        base = _config(workload, engine, 4, detect_timeout=5.0,
                       trace_dir=tmp_path / "trace", trace_id="abc",
                       fault_plan=FaultPlan.kill(rank=1, at_call=5))
        sup = Supervisor(RecoveryPolicy(), work_dir=tmp_path, monitor=True)
        first = sup.attempt_config(
            base, 0, ranks=4, dist="cyclic", fault_plan=base.fault_plan,
            work_dir=tmp_path, resume=None)
        later = sup.attempt_config(
            base, 2, ranks=3, dist="mps", fault_plan=None,
            work_dir=tmp_path, resume=tmp_path / "supervised.ckpt.npz")
        differing = {f.name for f in dataclasses.fields(RunConfig)
                     if getattr(first, f.name) != getattr(later, f.name)}
        assert differing == self.LADDER_OWNED
        assert later.trace_dir == str(tmp_path / "trace" / "attempt2")
        assert later.monitor_dir == str(tmp_path / "attempt2" / "monitor")
        assert (later.n_ranks, later.dist_kind) == (3, "mps")


class TestOneClosePath:
    """Rank 0's result is built after the kernel profile is emitted and
    the stream flushed — for the fork-join master too, whose result used
    to be built before its own ``finally``."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_metrics_describe_the_flushed_stream(self, workload, engine,
                                                 tmp_path):
        rank0 = first_survivor(
            launch(_config(workload, engine, trace_dir=tmp_path)))
        assert rank0.trace_path == str(tmp_path / "trace-rank0.jsonl")
        records = [json.loads(line) for line in
                   Path(rank0.trace_path).read_text().splitlines()]
        newview = [r["attrs"] for r in records if r["name"] == "kernel_op"
                   and r["attrs"]["op"] == "newview"]
        assert sum(a["count"] for a in newview) > 0
        assert sum(r["attrs"]["entries"] for r in records
                   if r["name"] == "clv_memory") > 0


def _comm_totals(trace_path):
    """Per-category span count and nbytes of one rank's flushed stream."""
    calls, nbytes = Counter(), Counter()
    for line in Path(trace_path).read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "comm":
            calls[record["category"]] += 1
            nbytes[record["category"]] += record.get("nbytes", 0)
    return dict(calls), dict(nbytes)


class TestSpansEqualWireCounters:
    """A traced rank's stream and its always-on wire counters are one
    record: per Table-I category, the comm spans' count and nbytes equal
    ``calls_by_tag`` and ``bytes_by_tag``."""

    @pytest.mark.parametrize("engine,rank", [("decentralized", 1),
                                             ("forkjoin", 0)])
    def test_per_category_totals(self, workload, engine, rank, tmp_path):
        results = launch(_config(workload, engine, trace_dir=tmp_path))
        result = results[rank]
        calls, nbytes = _comm_totals(result.trace_path)
        assert calls == result.calls_by_tag
        assert nbytes == result.bytes_by_tag
