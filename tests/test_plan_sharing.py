"""Plan sharing: the jobs of one trace share one kernel event batch.

The engine runs each trace's jobs under one
:class:`~repro.kernels.batch.PlanScope`, so sibling predictors reuse the
LB grouping and the stride/CAP rows a sibling already solved.  These
tests pin that the sharing

* changes nothing: every job's metrics, selector statistics and full
  architectural dump equal a fresh-batch kernel run and the python
  backend, including the configurations that must *not* share;
* really happens (solve counts and the ``kernels.plan_share`` counters),
  down to whole hybrid plans shared by fig6's non-overflowing geometries;
* is guarded: memoised pieces are read-only, and a trace's batch is gone
  once the next trace's jobs start.
"""

import weakref

import pytest

from repro.eval import engine
from repro.eval import experiments as E
from repro.eval.engine import Job, build_predictor, run_jobs
from repro.eval.metrics import PredictorMetrics
from repro.kernels import fold_metrics, run_batch
from repro.kernels import cap as cap_kernel
from repro.kernels import hybrid as hybrid_kernel
from repro.kernels import lb as lb_kernel
from repro.kernels import stride as stride_kernel
from repro.kernels.batch import EventBatch, PlanScope
from repro.obs.metrics import global_registry
from repro.predictors.cap import CAPConfig, CAPPredictor
from repro.predictors.hybrid import HybridConfig, HybridPredictor
from repro.predictors.link_table import LinkTableConfig
from repro.predictors.stride import StrideConfig, StridePredictor
from repro.eval.runner import run_on_columns
from repro.workloads import suites

from test_kernels import cap_dump, hy_dump, metrics_tuple, st_dump

#: At this budget fig6's 2K,2way load buffer overflows on JAV_3dg only.
TRACES = ["INT_gcc", "JAV_3dg"]
INSTR = 8000

#: (variant, factory, overrides): the fig5, fig6 and lt_sweep grids plus
#: configurations that must not share with them.
VARIANTS = [
    ("stride", "stride", {}),
    ("cap", "cap", {}),
    ("hybrid", "hybrid", {}),
] + [
    (f"{entries // 1024}K,{ways}way", "hybrid",
     {"lb_entries": entries, "lb_ways": ways})
    for entries, ways in [(2048, 2), (4096, 1), (4096, 2), (4096, 4), (8192, 2)]
] + [
    (f"LT {size // 1024}K", "hybrid",
     {"cap": CAPConfig(lt=LinkTableConfig(entries=size))})
    for size in [1024, 2048, 4096, 8192]
] + [
    # Differs from the default stride only in its confidence threshold.
    ("stride-conf3", "stride", {"confidence_threshold": 3}),
    # Sets overflow on both traces: its own LRU-replay grouping.
    ("hybrid-tiny-lb", "hybrid", {"lb_entries": 64, "lb_ways": 2}),
    ("hybrid-stride-correct", "hybrid",
     {"lt_update_policy": "unless_stride_correct"}),
    ("hybrid-selector3", "hybrid", {"selector_bits": 3}),
]


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_BACKEND", "numpy")


def _jobs(traces=TRACES, variants=VARIANTS):
    return [
        Job(trace=name, factory=factory, overrides=overrides,
            instructions=INSTR, variant=variant, capture_selector=True)
        for name in traces
        for variant, factory, overrides in variants
    ]


def _dump(predictor):
    if isinstance(predictor, HybridPredictor):
        return hy_dump(predictor)
    if isinstance(predictor, CAPPredictor):
        return cap_dump(predictor)
    assert isinstance(predictor, StridePredictor)
    return st_dump(predictor)


def _engine_run(monkeypatch, jobs):
    """run_jobs, keeping every predictor the engine built."""
    built = []

    def capture(job):
        predictor = build_predictor(job)
        built.append(predictor)
        return predictor

    monkeypatch.setattr(engine, "build_predictor", capture)
    results = run_jobs(jobs)
    monkeypatch.setattr(engine, "build_predictor", build_predictor)
    return results, built


def _stream(job):
    return suites.get_predictor_stream(job.trace, job.instructions)


class _Counting:
    """Counts calls of module-level solver functions."""

    def __init__(self, monkeypatch):
        self.calls = {}
        for module, name in (
            (lb_kernel, "lb_solve"),
            (stride_kernel, "stride_rows"),
            (cap_kernel, "cap_rows"),
            (hybrid_kernel, "_solve_hybrid"),
        ):
            self._wrap(monkeypatch, module, name)

    def _wrap(self, monkeypatch, module, name):
        original = getattr(module, name)
        self.calls[name] = 0

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def _share_counters():
    counters = global_registry().snapshot()["counters"]
    return (counters.get("kernels.plan_share.hit", 0),
            counters.get("kernels.plan_share.miss", 0))


class TestSharingParity:
    def test_shared_equals_fresh_batch_and_python(self, monkeypatch):
        jobs = _jobs()
        shared, shared_built = _engine_run(monkeypatch, jobs)
        assert all(r.backend == "numpy" for r in shared)

        for job, result, predictor in zip(jobs, shared, shared_built):
            fresh = build_predictor(job)
            metrics = PredictorMetrics(name=job.variant)
            kernel = run_batch(fresh, _stream(job))
            assert kernel is not None, job.variant
            fold_metrics(kernel, metrics, 0)
            label = (job.trace, job.variant)
            assert metrics_tuple(result.metrics) == metrics_tuple(metrics), label
            assert _dump(predictor) == _dump(fresh), label

        monkeypatch.setenv("REPRO_BACKEND", "python")
        scalar, scalar_built = _engine_run(monkeypatch, jobs)
        assert all(r.backend == "python" for r in scalar)
        for job, a, b, pa, pb in zip(
            jobs, shared, scalar, shared_built, scalar_built
        ):
            label = (job.trace, job.variant)
            assert metrics_tuple(a.metrics) == metrics_tuple(b.metrics), label
            assert _dump(pa) == _dump(pb), label
            if job.factory == "hybrid":
                assert a.selector_stats == b.selector_stats, label

    def test_python_backend_never_builds_a_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        built = []
        original = EventBatch.from_stream.__func__

        def spy(cls, stream):
            built.append(stream)
            return original(cls, stream)

        monkeypatch.setattr(EventBatch, "from_stream", classmethod(spy))
        run_jobs(_jobs(TRACES[:1], VARIANTS[:3]))
        assert built == []


class TestSharingHappens:
    def test_fig5_solves_each_piece_once(self, monkeypatch):
        counting = _Counting(monkeypatch)
        hit0, miss0 = _share_counters()
        E.fig5(traces=TRACES[:1], instructions=INSTR)
        assert counting.calls == {
            "lb_solve": 1, "stride_rows": 1, "cap_rows": 1, "_solve_hybrid": 1,
        }
        hit1, miss1 = _share_counters()
        # stride solves everything; CAP and the hybrid reuse its work.
        assert (hit1 - hit0, miss1 - miss0) == (2, 1)

    def test_one_increment_per_job(self, monkeypatch):
        hit0, miss0 = _share_counters()
        jobs = _jobs(TRACES, VARIANTS)
        run_jobs(jobs)
        hit1, miss1 = _share_counters()
        # A batch holds one grouping's pieces at a time.  Misses on each
        # trace: the first job (stride), the tiny-LB hybrid and the job
        # after it (back on the flat grouping); on JAV_3dg also the
        # overflowing 2K,2way hybrid and the 4K,1way one after it.  Every
        # other job reuses a sibling's solve.
        assert (hit1 - hit0, miss1 - miss0) == (len(jobs) - 8, 8)

    @pytest.mark.parametrize("variants,expected", [
        # A confidence threshold is part of the stride configuration.
        ([("a", "stride", {}),
          ("b", "stride", {"confidence_threshold": 3})],
         {"lb_solve": 1, "stride_rows": 2, "cap_rows": 0, "_solve_hybrid": 0}),
        # Link Table sizes are part of the CAP configuration.
        ([("a", "hybrid", {"cap": CAPConfig(lt=LinkTableConfig(entries=1024))}),
          ("b", "hybrid", {"cap": CAPConfig(lt=LinkTableConfig(entries=2048))})],
         {"lb_solve": 1, "stride_rows": 1, "cap_rows": 2, "_solve_hybrid": 2}),
        # The selector width is part of the hybrid plan only.
        ([("a", "hybrid", {}),
          ("b", "hybrid", {"selector_bits": 3})],
         {"lb_solve": 1, "stride_rows": 1, "cap_rows": 1, "_solve_hybrid": 2}),
        # An overflowing geometry replays its own grouping.
        ([("a", "hybrid", {}),
          ("b", "hybrid", {"lb_entries": 64, "lb_ways": 2})],
         {"lb_solve": 2, "stride_rows": 2, "cap_rows": 2, "_solve_hybrid": 2}),
        # Non-overflowing geometries share one grouping and one plan.
        ([("a", "hybrid", {"lb_entries": 4096, "lb_ways": 4}),
          ("b", "hybrid", {"lb_entries": 8192, "lb_ways": 2})],
         {"lb_solve": 1, "stride_rows": 1, "cap_rows": 1, "_solve_hybrid": 1}),
    ])
    def test_what_must_not_share(self, monkeypatch, variants, expected):
        counting = _Counting(monkeypatch)
        run_jobs(_jobs(TRACES[:1], variants))
        assert counting.calls == expected

    def test_overflowing_geometry_has_its_own_grouping(self):
        stream = suites.get_predictor_stream("JAV_3dg", INSTR)
        batch = EventBatch.from_stream(stream)

        def key(entries, ways):
            config = HybridConfig(lb_entries=entries, lb_ways=ways)
            return batch.grouping_key(HybridPredictor(config).load_buffer)

        assert key(4096, 2) == key(4096, 1) == key(8192, 2) == "flat"
        assert key(2048, 2) == (10, 2)
        assert key(64, 2) == (5, 2)


class TestSharedStateGuards:
    def test_memoised_pieces_are_read_only(self):
        stream = suites.get_predictor_stream(TRACES[0], INSTR)
        scope = PlanScope()
        stride = StridePredictor()
        hybrid = HybridPredictor()
        assert run_batch(stride, stream, scope=scope) is not None
        batch = scope.batch_for(stream)
        lb = batch.lb_groups(stride.table)
        order_before = lb["order"].copy()
        # A commit that wrote into its sibling's plan must raise.
        batch.begin_plan()
        result = hybrid.predict_batch(batch)
        with pytest.raises(ValueError):
            result.state["lb"]["order"][0] = -1
        with pytest.raises(ValueError):
            result.state["solved_lt"]["link"][:] = 0
        with pytest.raises(TypeError):
            result.state["lb"]["order"] = order_before
        with pytest.raises(ValueError):
            batch.load_columns()[1][0] = 0
        assert (lb["order"] == order_before).all()
        rows = stride_kernel.shared_stride_rows(batch, stride.table, stride.config)
        with pytest.raises(ValueError):
            rows["corr"][0] = True

    def test_batch_holds_one_grouping_at_a_time(self):
        stream = suites.get_predictor_stream(TRACES[0], INSTR)
        batch = EventBatch.from_stream(stream)
        flat = batch.lb_groups(HybridPredictor().load_buffer)
        order = weakref.ref(flat["order"])
        del flat
        tiny = HybridPredictor(HybridConfig(lb_entries=64, lb_ways=2))
        batch.lb_groups(tiny.load_buffer)
        assert order() is None

    def test_previous_trace_batch_is_released(self, monkeypatch):
        jobs = _jobs(TRACES, VARIANTS[:3])
        refs = []
        original_batch_for = PlanScope.batch_for

        def recording(self, stream):
            batch = original_batch_for(self, stream)
            if not refs or refs[-1]() is not batch:
                refs.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(PlanScope, "batch_for", recording)
        checked = []
        original_execute = engine.execute_job

        def execute(job):
            if job.trace == TRACES[1] and not checked:
                assert len(refs) == 1
                assert refs[0]() is None, "trace A's batch outlived its jobs"
                checked.append(job)
            return original_execute(job)

        monkeypatch.setattr(engine, "execute_job", execute)
        results = run_jobs(jobs)
        assert checked
        assert [(r.trace, r.variant) for r in results] == \
               [(j.trace, j.variant) for j in jobs]
        assert len(refs) == 2 and refs[1]() is None

    def test_interleaved_jobs_still_merge_in_job_order(self):
        jobs = _jobs(TRACES, VARIANTS[:3])
        interleaved = jobs[::2] + jobs[1::2]
        results = run_jobs(interleaved)
        assert [(r.trace, r.variant) for r in results] == \
               [(j.trace, j.variant) for j in interleaved]
        by_key = {(r.trace, r.variant): metrics_tuple(r.metrics)
                  for r in run_jobs(jobs)}
        for r in results:
            assert metrics_tuple(r.metrics) == by_key[(r.trace, r.variant)]

    def test_served_path_builds_one_batch_per_run(self, monkeypatch):
        stream = suites.get_predictor_stream(TRACES[0], INSTR)
        built = []
        original = EventBatch.from_stream.__func__

        def spy(cls, s):
            built.append(s)
            return original(cls, s)

        monkeypatch.setattr(EventBatch, "from_stream", classmethod(spy))
        for _ in range(2):
            run_on_columns(
                HybridPredictor(), stream, PredictorMetrics(name="h")
            )
        assert len(built) == 2


def test_default_component_configs_match():
    """fig5's hybrid can only reuse its siblings' rows while these hold."""
    assert HybridConfig().stride == StrideConfig()
    assert HybridConfig().cap == CAPConfig()
