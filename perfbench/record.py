"""Record ``digests.json``: the outputs every benchmark run must reproduce.

Each grid figure is rendered under the numpy and the python backend, and
each served stream is replayed through an in-process
:class:`repro.serve.session.PredictorSession` under both backends.  A
digest is written only when the two backends agree byte for byte.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

import grids
import serving
import stats

BACKENDS = ("numpy", "python")


def record_digests(work: Path, target: Path) -> int:
    from repro.eval.experiments import quick_trace_set

    roster = quick_trace_set()
    digests: Dict[str, Any] = {}
    disagreements = []
    for grid in grids.GRIDS.values():
        runner = grids.GridRunner(grid, work / grid.name, {}, roster, 0)
        runner.work.mkdir(parents=True, exist_ok=True)
        runner.setup()
        entry: Dict[str, Any] = {"instructions": grid.instructions}
        for figure in grid.figures:
            seen = {}
            for backend in BACKENDS:
                run = runner.figure(figure, backend=backend)
                if run.digest is None:
                    raise RuntimeError("; ".join(run.problems))
                seen[backend] = run.digest
            print(f"{grid.name} {figure}: {seen}")
            if len(set(seen.values())) != 1:
                disagreements.append(f"{grid.name}/{figure}: {seen}")
            entry[figure] = seen["numpy"]
        digests[grid.name] = entry

    serve_runner = grids.GridRunner(
        grids.Grid("serve-stream", (), serving.INSTRUCTIONS, False),
        work / "serve-stream", {}, roster, 0,
    )
    serve_runner.work.mkdir(parents=True, exist_ok=True)
    serve_runner.setup()
    os.environ["REPRO_TRACE_CACHE"] = str(serve_runner.cache)
    feeds: Dict[str, Dict[str, Any]] = {}
    for backend in BACKENDS:
        os.environ["REPRO_BACKEND"] = backend
        streams, _ = serving.load_streams(roster)
        feeds[backend] = {name: ref.digests for name, ref in streams.items()}
    os.environ["REPRO_BACKEND"] = BACKENDS[0]
    mismatches = stats.digest_mismatches(
        serving.feed_digests(feeds["numpy"]), serving.feed_digests(feeds["python"])
    )
    disagreements.extend(f"serve-stream {m}" for m in mismatches)
    digests["serve-stream"] = {
        "instructions": serving.INSTRUCTIONS,
        "feed_events": serving.FEED_EVENTS,
        "factory": serving.FACTORY,
        "feeds": feeds["numpy"],
    }
    if disagreements:
        for line in disagreements:
            print(f"backends disagree: {line}")
        return 1
    target.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {target.name}")
    return 0

