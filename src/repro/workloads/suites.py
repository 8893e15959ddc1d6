"""The 45-trace / 8-suite benchmark roster (paper Section 4.1).

The paper evaluates on 45 proprietary IA-32 traces grouped into eight
suites: SPECint95 (INT, 8), CAD programs (CAD, 2), MMX multimedia (MM, 8),
games (GAM, 4), JAVA programs (JAV, 5), TPC benchmarks (TPC, 3), NT
applications (NT, 8) and Windows-95 applications (W95, 7).  This module
defines a synthetic stand-in for each trace with the suite's characteristic
address-pattern mix (see DESIGN.md for the substitution argument).

Trace lengths default to ``DEFAULT_INSTRUCTIONS`` dynamic instructions
(scaled down from the paper's 30M for a pure-Python pipeline) and can be
scaled with the ``REPRO_TRACE_SCALE`` environment variable.  Generated
traces are cached on disk; a (name, seed, length) triple is fully
deterministic.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..trace.trace import PredictorStream, Trace
from .arrays import (
    ArraySumWorkload,
    CopyWorkload,
    GatherWorkload,
    HistogramWorkload,
    MatMulWorkload,
    SaxpyWorkload,
    StencilWorkload,
)
from .base import Workload, trace_workload
from .binary_tree import BinaryTreeWorkload
from .cad import CircuitWorkload
from .call_patterns import CallPatternWorkload
from .database import BTreeLookupWorkload, HashJoinWorkload, TableScanWorkload
from .desktop import DesktopWorkload
from .extra import (
    MutatingListWorkload,
    QuickSortWorkload,
    RingBufferWorkload,
    SparseMatVecWorkload,
)
from .game import GameWorkload
from .hash_table import HashTableWorkload
from .interpreter import ListEvalWorkload
from .linked_list import (
    DoubleLinkedListWorkload,
    IndexListWorkload,
    LinkedListWorkload,
)
from .random_access import LongChainWorkload, RandomAccessWorkload
from .stack_machine import JavaJITWorkload

__all__ = [
    "SUITES",
    "SUITE_NAMES",
    "DEFAULT_INSTRUCTIONS",
    "trace_names",
    "suite_of",
    "build_workload",
    "get_trace",
    "get_predictor_stream",
    "trace_cache_path",
    "suite_traces",
    "all_traces",
    "default_instructions",
]

#: Baseline dynamic-instruction budget per trace (paper: 30M).
DEFAULT_INSTRUCTIONS = 200_000

SUITE_NAMES = ("CAD", "GAM", "INT", "JAV", "MM", "NT", "TPC", "W95")


def _mk(factory: Callable[[str, int], Workload], suite: str):
    """Wrap a factory so the built workload carries the right suite label."""

    def build(name: str, seed: int) -> Workload:
        workload = factory(name, seed)
        workload.suite = suite
        return workload

    return build


#: suite -> ordered list of (trace_name, builder) pairs.
SUITES: Dict[str, List[tuple]] = {
    "INT": [
        ("INT_cmp", _mk(lambda n, s: LinkedListWorkload(
            n, s, length=40, via_global_ptr=True), "INT")),
        ("INT_gcc", _mk(lambda n, s: CircuitWorkload(
            n, s, gates=256, gate_types=16, wheel_len=160), "INT")),
        ("INT_go", _mk(lambda n, s: IndexListWorkload(
            n, s, length=28, capacity=128), "INT")),
        ("INT_ijpeg", _mk(lambda n, s: ArraySumWorkload(
            n, s, elements=2048, stride_words=2), "INT")),
        ("INT_m88", _mk(lambda n, s: JavaJITWorkload(
            n, s, methods=10, ops_per_method=14), "INT")),
        ("INT_prl", _mk(lambda n, s: HashTableWorkload(
            n, s, buckets=128, items=192, probes=64), "INT")),
        ("INT_vtx", _mk(lambda n, s: BinaryTreeWorkload(
            n, s, nodes=48), "INT")),
        ("INT_xli", _mk(lambda n, s: ListEvalWorkload(
            n, s, elements=20, sublist_len=6), "INT")),
    ],
    "CAD": [
        ("CAD_cat", _mk(lambda n, s: CircuitWorkload(
            n, s, gates=160, gate_types=24, wheel_len=96,
            max_fanout=2), "CAD")),
        ("CAD_mic", _mk(lambda n, s: CircuitWorkload(
            n, s, gates=224, gate_types=32, wheel_len=128,
            max_fanout=3), "CAD")),
    ],
    "MM": [
        ("MM_aud", _mk(lambda n, s: ArraySumWorkload(
            n, s, elements=8192), "MM")),
        ("MM_fir", _mk(lambda n, s: StencilWorkload(
            n, s, elements=4096), "MM")),
        ("MM_hst", _mk(lambda n, s: HistogramWorkload(
            n, s, elements=4096, buckets=128), "MM")),
        ("MM_img", _mk(lambda n, s: CopyWorkload(
            n, s, elements=16384), "MM")),
        ("MM_mat", _mk(lambda n, s: MatMulWorkload(n, s, n=32), "MM")),
        ("MM_mpa", _mk(lambda n, s: SaxpyWorkload(
            n, s, elements=8192), "MM")),
        ("MM_mpg", _mk(lambda n, s: GatherWorkload(
            n, s, elements=4096), "MM")),
        ("MM_mpv", _mk(lambda n, s: StencilWorkload(
            n, s, elements=12288), "MM")),
    ],
    "GAM": [
        ("GAM_duk", _mk(lambda n, s: GameWorkload(
            n, s, entities=24, entity_types=4, particles=384), "GAM")),
        ("GAM_fal", _mk(lambda n, s: GameWorkload(
            n, s, entities=48, entity_types=6, particles=512), "GAM")),
        ("GAM_mec", _mk(lambda n, s: GameWorkload(
            n, s, entities=64, entity_types=5, particles=256), "GAM")),
        ("GAM_quk", _mk(lambda n, s: GameWorkload(
            n, s, entities=32, entity_types=3, particles=768,
            lut_size=512), "GAM")),
    ],
    "JAV": [
        ("JAV_3dg", _mk(lambda n, s: JavaJITWorkload(
            n, s, methods=20, ops_per_method=24), "JAV")),
        ("JAV_aud", _mk(lambda n, s: JavaJITWorkload(
            n, s, methods=28, ops_per_method=20), "JAV")),
        ("JAV_cfc", _mk(lambda n, s: JavaJITWorkload(
            n, s, methods=36, ops_per_method=28,
            locals_per_method=8), "JAV")),
        ("JAV_cwc", _mk(lambda n, s: JavaJITWorkload(
            n, s, methods=44, ops_per_method=24), "JAV")),
        ("JAV_cws", _mk(lambda n, s: JavaJITWorkload(
            n, s, methods=52, ops_per_method=18,
            locals_per_method=4), "JAV")),
    ],
    "TPC": [
        ("TPC_23", _mk(lambda n, s: BTreeLookupWorkload(
            n, s, keys=512, queries=64), "TPC")),
        ("TPC_33", _mk(lambda n, s: HashJoinWorkload(
            n, s, buckets=256, build_rows=384, probe_rows=384), "TPC")),
        ("TPC_b", _mk(lambda n, s: TableScanWorkload(
            n, s, rows=384, dim_rows=64), "TPC")),
    ],
    "NT": [
        ("NT_cdw", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=96, loads_per_handler=14, queue_len=120), "NT")),
        ("NT_exl", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=128, loads_per_handler=16, queue_len=160), "NT")),
        ("NT_frl", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=160, loads_per_handler=12, queue_len=200), "NT")),
        ("NT_pdx", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=192, loads_per_handler=16, queue_len=240), "NT")),
        ("NT_pmk", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=224, loads_per_handler=14, queue_len=280), "NT")),
        ("NT_pwp", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=256, loads_per_handler=12, queue_len=320), "NT")),
        ("NT_wdp", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=192, loads_per_handler=20, queue_len=240), "NT")),
        ("NT_wwd", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=128, loads_per_handler=24, queue_len=160), "NT")),
    ],
    "W95": [
        ("W95_cdw", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=288, loads_per_handler=16, queue_len=360), "W95")),
        ("W95_exl", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=320, loads_per_handler=14, queue_len=400), "W95")),
        ("W95_frl", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=352, loads_per_handler=12, queue_len=440), "W95")),
        ("W95_prx", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=384, loads_per_handler=14, queue_len=480), "W95")),
        ("W95_pwp", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=320, loads_per_handler=18, queue_len=400), "W95")),
        ("W95_wdp", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=256, loads_per_handler=20, queue_len=320), "W95")),
        ("W95_wwd", _mk(lambda n, s: DesktopWorkload(
            n, s, handlers=288, loads_per_handler=22, queue_len=360), "W95")),
    ],
}

# Deterministic per-trace seeds (stable across sessions).
_SEEDS: Dict[str, int] = {}
for _suite_index, _suite in enumerate(SUITE_NAMES):
    for _trace_index, (_name, _builder) in enumerate(SUITES[_suite]):
        _SEEDS[_name] = 1000 + 100 * _suite_index + _trace_index

_BUILDERS: Dict[str, Callable[[str, int], Workload]] = {
    name: builder for pairs in SUITES.values() for name, builder in pairs
}

#: Extra non-suite workloads used by unit tests and ablations.
EXTRA_WORKLOADS: Dict[str, Callable[[str, int], Workload]] = {
    "X_random": _mk(lambda n, s: RandomAccessWorkload(n, s), "MISC"),
    "X_longchain": _mk(lambda n, s: LongChainWorkload(n, s), "MISC"),
    "X_dlist": _mk(lambda n, s: DoubleLinkedListWorkload(n, s), "MISC"),
    "X_calls": _mk(lambda n, s: CallPatternWorkload(n, s), "MISC"),
    "X_qsort": _mk(lambda n, s: QuickSortWorkload(n, s), "MISC"),
    "X_mutlist": _mk(lambda n, s: MutatingListWorkload(n, s), "MISC"),
    "X_ring": _mk(lambda n, s: RingBufferWorkload(n, s), "MISC"),
    "X_spmv": _mk(lambda n, s: SparseMatVecWorkload(n, s), "MISC"),
}


def default_instructions() -> int:
    """Per-trace instruction budget honouring ``REPRO_TRACE_SCALE``."""
    # Documented CI knob (docs/performance.md): scales trace *length*, never
    # trace *content* — the same seed still generates the same events, so a
    # scaled run is a deterministic prefix of the full one.
    from ..eval.config import trace_scale

    return max(1000, int(DEFAULT_INSTRUCTIONS * trace_scale()))


def trace_names(suite: Optional[str] = None) -> List[str]:
    """All trace names, optionally restricted to one suite."""
    if suite is None:
        return [name for s in SUITE_NAMES for name, _ in SUITES[s]]
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return [name for name, _ in SUITES[suite]]


def suite_of(trace_name: str) -> str:
    """Suite label for a trace name (registry traces included)."""
    for suite in SUITE_NAMES:
        if any(name == trace_name for name, _ in SUITES[suite]):
            return suite
    if trace_name in EXTRA_WORKLOADS:
        return "MISC"
    from . import registry

    label = registry.suite_of(trace_name)
    if label is not None:
        return label
    raise KeyError(f"unknown trace {trace_name!r}")


def build_workload(trace_name: str) -> Workload:
    """Instantiate the workload behind a trace name."""
    if trace_name in _BUILDERS:
        return _BUILDERS[trace_name](trace_name, _SEEDS[trace_name])
    if trace_name in EXTRA_WORKLOADS:
        return EXTRA_WORKLOADS[trace_name](trace_name, 7777)
    raise KeyError(f"unknown trace {trace_name!r}")


#: Bumped whenever the trace schema or workload definitions change in a
#: way that invalidates previously cached traces.  v3 added the persisted
#: columnar predictor-stream arrays.
_CACHE_VERSION = 3


def _cache_dir() -> Path:
    # Documented cache-location knob (CI points it at a tmpfs).  It moves
    # where identical bytes are stored; cache contents are content-addressed
    # by (_CACHE_VERSION, trace, instructions), so results cannot change.
    from ..eval.config import trace_cache_dir

    override = trace_cache_dir()
    if override:
        return Path(override)
    return Path.cwd() / ".trace_cache"


@contextmanager
def _generation_lock(cache_path: Path):
    """Exclusive advisory lock guarding one cache file's first generation.

    Parallel engine workers resolve traces through this cache; without the
    lock, N cold-cache workers would each regenerate the same trace.  With
    it, one worker generates while the rest block and then load the file.
    ``fcntl`` is Linux/macOS only; where it is unavailable the atomic
    rename in :meth:`Trace.save` still keeps concurrent generation safe —
    merely redundant rather than serialised.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = cache_path.with_name(cache_path.name + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def trace_cache_path(
    trace_name: str, instructions: Optional[int] = None
) -> Path:
    """On-disk cache file a (trace, instructions) pair resolves to.

    The file may not exist yet (cold cache).  Exposed so run manifests
    can record cache-file provenance without duplicating the naming
    scheme.
    """
    if instructions is None:
        instructions = default_instructions()
    return _cache_dir() / f"{trace_name}_{instructions}_v{_CACHE_VERSION}.npz"


def get_trace(
    trace_name: str,
    instructions: Optional[int] = None,
    use_cache: bool = True,
) -> Trace:
    """Return the trace, generating (and caching) it on first use.

    Safe under concurrent callers (e.g. parallel engine workers hitting a
    cold cache): first generation runs under an exclusive per-file lock and
    the cache write is an atomic rename, so every caller observes either a
    missing file or a complete one.

    Names no synthetic workload claims fall back to the benchmark-set
    registry (ingested external traces, :mod:`repro.workloads.registry`);
    there ``instructions`` caps the record count and ``None`` means the
    whole file, so external traces are never padded or truncated to the
    synthetic default budget.
    """
    if trace_name not in _BUILDERS and trace_name not in EXTRA_WORKLOADS:
        from . import registry

        return registry.get_trace(
            trace_name, instructions, use_cache=use_cache
        )
    if instructions is None:
        instructions = default_instructions()
    cache_path = trace_cache_path(trace_name, instructions)
    if use_cache and cache_path.exists():
        return Trace.load(cache_path)
    if not use_cache:
        workload = build_workload(trace_name)
        return trace_workload(workload, max_instructions=instructions)
    with _generation_lock(cache_path):
        if cache_path.exists():  # another worker generated it while we waited
            return Trace.load(cache_path)
        workload = build_workload(trace_name)
        trace = trace_workload(workload, max_instructions=instructions)
        trace.save(cache_path)
    return trace


def get_predictor_stream(
    trace_name: str,
    instructions: Optional[int] = None,
) -> PredictorStream:
    """Columnar predictor stream for a trace, loaded as cheaply as possible.

    On a warm cache this reads only the four persisted stream arrays from
    the ``.npz`` (skipping the nine full event columns); on a cold cache it
    generates the trace through :func:`get_trace` (locked + atomic) first.
    Registry (ingested) trace names resolve the same way through the
    registry's own cache naming.
    """
    if trace_name not in _BUILDERS and trace_name not in EXTRA_WORKLOADS:
        from . import registry

        return registry.get_predictor_stream(trace_name, instructions)
    if instructions is None:
        instructions = default_instructions()
    cache_path = trace_cache_path(trace_name, instructions)
    if cache_path.exists():
        stream = Trace.load_stream(cache_path)
        if stream is not None:
            return stream
    return get_trace(trace_name, instructions).predictor_columns()


def suite_traces(suite: str, instructions: Optional[int] = None) -> List[Trace]:
    """All traces of one suite (generated or loaded from cache)."""
    return [get_trace(name, instructions) for name in trace_names(suite)]


def all_traces(instructions: Optional[int] = None) -> List[Trace]:
    """All 45 traces in suite order."""
    return [get_trace(name, instructions) for name in trace_names()]
