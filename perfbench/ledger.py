"""Per-layer attribution of a traced round.

A layer is a package of ``src/repro`` (``apps``, ``matrix``, ``runtime``,
``engine``, ``resilience``, ``util``) or the chaos harness
(``repro/chaos.py`` and ``repro/baseline.py``).  From one ``cProfile``
profile this module derives, per layer:

* *self time*: the profile's own time of every function defined in the
  layer's files (``kernel`` is the own time of NumPy/SciPy: their C
  functions and their Python files);
* *inclusive time and calls of entry points*: for a set of functions, the
  cumulative time and call count of every call made into the set from a
  function outside it — so nested calls inside the set count once.

Times here are inflated by profiling; they are for attribution, never for
the end-to-end metrics.
"""

from __future__ import annotations

import os
import pstats
from typing import Callable, Dict, Iterable, Tuple

Key = Tuple[str, int, str]  # (file, line, function) as cProfile records it

#: Layer name -> path fragment of its files under ``src/repro``.
LAYER_DIRS = {
    "apps": "/repro/apps/",
    "matrix": "/repro/matrix/",
    "runtime": "/repro/runtime/",
    "engine": "/repro/engine/",
    "resilience": "/repro/resilience/",
    "util": "/repro/util/",
}


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def is_kernel(key: Key) -> bool:
    """NumPy/SciPy code: their C functions and their Python files."""
    path, _, name = key
    if path == "~":
        return "numpy" in name or "scipy" in name
    path = _norm(path)
    return "/numpy/" in path or "/scipy/" in path


def self_time(stats: Dict, pick: Callable[[Key], bool]) -> float:
    return sum(v[2] for k, v in stats.items() if pick(k))


def entry(stats: Dict, where, names: Iterable[str] = ()) -> Tuple[float, int]:
    """Inclusive seconds and calls of every call made into a set of
    functions from outside the set.

    The set is every function defined in a file whose path contains the
    fragment *where* (or one of several), restricted to *names* if given.
    """
    fragments = (where,) if isinstance(where, str) else tuple(where)
    names = set(names)
    members = {
        k for k in stats
        if any(f in _norm(k[0]) for f in fragments) and (not names or k[2] in names)
    }
    seconds, calls = 0.0, 0
    for key in members:
        _, nc, _, ct, callers = stats[key]
        if not callers:  # called from the profiler's own frame
            seconds += ct
            calls += nc
        for caller, edge in callers.items():
            if caller not in members:
                # edge = (calls, primitive calls, own time, cumulative time)
                calls += edge[0]
                seconds += edge[3]
    return seconds, calls


def layer_metrics(profile_stats: pstats.Stats) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    stats = profile_stats.stats
    out: Dict[str, float] = {}

    for layer, fragment in LAYER_DIRS.items():
        if layer != "apps":
            out[f"{layer}.self_s"] = self_time(
                stats, lambda k, f=fragment: f in _norm(k[0])
            )
    out["kernel.self_s"] = self_time(stats, is_kernel)
    out["matrix.calls"] = sum(
        v[1] for k, v in stats.items() if "/repro/matrix/" in _norm(k[0])
    )
    out["resilience.executor_s"] = self_time(
        stats, lambda k: _norm(k[0]).endswith("/repro/resilience/executor.py")
    )

    apps = ("/repro/apps/nonresilient/", "/repro/apps/resilient/")
    out["apps.build_s"], out["apps.builds"] = entry(stats, apps, ["__init__"])
    out["apps.linkmatrix_s"], _ = entry(
        stats,
        "/repro/matrix/random.py",
        ["block", "destinations", "_generate", "_splitmix64"],
    )

    resilient = "/repro/apps/resilient/"
    for name in ("checkpoint", "restore", "reconstruct"):
        out[f"resilience.{name}_s"], _ = entry(stats, resilient, [name])
    out["resilience.parity_s"], _ = entry(stats, "/repro/resilience/parity.py")

    out["runtime.detector_s"], _ = entry(stats, "/repro/runtime/detector.py")

    scheduler = "/repro/engine/scheduler.py"
    transfer_s, transfers = entry(stats, scheduler, ["transfer"])
    out["engine.transfer_calls"] = transfers
    out["engine.us_per_transfer"] = 1e6 * transfer_s / transfers if transfers else 0.0
    _, out["engine.finish_calls"] = entry(
        stats, scheduler, ["complete_finish", "complete_finish_zero"]
    )

    out["util.crc_s"], out["util.crc_calls"] = entry(stats, "/repro/util/checksum.py")

    out["chaos.prefix_build_s"], _ = entry(stats, "/repro/chaos.py", ["build"])
    out["chaos.prefix_fork_s"], _ = entry(stats, "/repro/chaos.py", ["fork"])
    _, out["chaos.prefix_forks"] = entry(stats, "/repro/engine/fork.py", ["load"])
    return out
