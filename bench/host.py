"""The machine side of the harness: thread caps, pinning, CPU/RSS readings
from ``/proc``, and the fingerprint every output carries.

Everything here observes processes from outside; nothing reaches into
the program under test.
"""

from __future__ import annotations

import gc
import glob
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: one BLAS thread per process: on a 2-vCPU box the default pool makes
#: harness and worker fight for both cores and throughput bistable
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cap_threads() -> None:
    """Must run before numpy is first imported."""
    os.environ.update(THREAD_ENV)


def pin_harness() -> dict:
    """Pin this process to the first allowed CPU; workers get the second.

    Returns the pinning plan (part of the fingerprint).  With one CPU
    allowed nothing is pinned: harness and workers must share it.
    """
    allowed = sorted(os.sched_getaffinity(0))
    plan = {"allowed_cpus": allowed, "pinned": len(allowed) >= 2,
            "harness_cpu": None, "worker_cpu": None}
    if plan["pinned"]:
        plan["harness_cpu"], plan["worker_cpu"] = allowed[0], allowed[1]
        os.sched_setaffinity(0, {allowed[0]})
    return plan


def pin_workers(pids, plan: dict) -> None:
    """Move every thread of every worker process to the worker CPU.

    Threads a worker starts later inherit the mask from their creator.
    """
    if not plan["pinned"]:
        return
    for pid in pids:
        for task in glob.glob(f"/proc/{pid}/task/*"):
            try:
                os.sched_setaffinity(int(os.path.basename(task)), {plan["worker_cpu"]})
            except (ProcessLookupError, ValueError):
                pass  # thread exited between listing and pinning


def _proc_cpu_ms(pid: int) -> float:
    """On-CPU time of all live threads of ``pid``.

    ``schedstat`` counts nanoseconds; ``stat`` (the fallback where the
    kernel lacks schedstats) counts 10 ms ticks, too coarse for one
    window of a mostly-idle process.
    """
    total_ns, seen = 0, False
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path) as fh:
                total_ns += int(fh.read().split()[0])
                seen = True
        except (OSError, ValueError, IndexError):
            continue
    if seen:
        return total_ns / 1e6
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) * 1e3 / _CLK_TCK


def cpu_ms(worker_pids=()) -> float:
    """CPU time consumed so far by the harness and the given workers."""
    return time.process_time() * 1e3 + sum(_proc_cpu_ms(p) for p in worker_pids)


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so a round's
    peak is not the peak of whatever ran in the harness before it.
    Collects garbage first: whether a cycle of dead arrays happens to be
    freed before or after the reset is otherwise a 10 MB coin toss."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # older kernels: the peak stays cumulative


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def reap_resource_tracker() -> None:
    """Stop multiprocessing's helper process and wait for it.

    It would exit by itself once this process does, but a benchmark run
    must leave nothing behind even for a moment.  ``_stop`` is private to
    the stdlib, hence the guarded lookup.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _git_commit() -> str:
    """HEAD of this checkout, read from ``.git`` files (a benchmark
    checkout may not be a repository, and must not look above itself)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def _blas_name(np) -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def fingerprint(plan: dict, seed: int, seconds: float) -> dict:
    """What two result files must agree on before their numbers are compared."""
    import numpy as np

    return {
        "allowed_cpus": plan["allowed_cpus"],
        "pinned": plan["pinned"],
        "harness_cpu": plan["harness_cpu"],
        "worker_cpu": plan["worker_cpu"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "kernel": platform.release(),
        "git_commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "argv": sys.argv[1:],
    }
