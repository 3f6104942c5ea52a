"""A crash- and hang-tolerant worker pool for spec execution.

``multiprocessing.Pool`` assumes workers are well-behaved: a worker that
dies mid-task hangs the pool (or poisons ``imap``), and there is no
per-task timeout.  Campaigns run thousands of trials for hours, so the
runner needs the stronger property: **a killed or wedged worker costs a
retry, never the run.**

Design: the parent owns one duplex :func:`multiprocessing.Pipe` per
worker and assigns tasks explicitly, so every in-flight task has a known
owner.  Pipes are used instead of queues deliberately — a queue's
feeder thread can lose messages when a worker dies abruptly, making lost
tasks unattributable.  The parent multiplexes completions with
:func:`multiprocessing.connection.wait`; a worker that exits (EOF on its
pipe) or blows its per-task deadline is reaped, its task is requeued
with capped exponential backoff, and a fresh worker is spawned in its
place.  Tasks that raise are classified before any backoff happens:
a :class:`~repro.errors.ReproError` is a *deterministic* function of
the spec (the simulation itself rejected it) — re-running it would fail
identically, so the batch aborts immediately with
:class:`~repro.errors.RunnerError` naming the spec, never sleeping a
wall-clock backoff first.  Any other exception is environmental
(out-of-memory, a vanished cache directory, ...) and retryable like a
crash.

Fault-injection hooks (for tests and the CI resume job): setting
``REPRO_RUNNER_CRASH_ONCE_FILE`` (or ``..._HANG_ONCE_FILE``) to a path
makes exactly one worker task, across all workers, hard-exit (or wedge)
at pickup — whichever worker first claims the marker file via exclusive
create.  Records are byte-identical with or without the injected fault,
which is the point.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.backoff import capped_exponential
from repro.errors import ReproError, RunnerError
from repro.runner.execute import execute_spec
from repro.runner.spec import Spec

#: Path of a marker file; the first worker task to claim it exits hard
#: (simulates an OOM-kill / segfault mid-task).
CRASH_ONCE_ENV = "REPRO_RUNNER_CRASH_ONCE_FILE"

#: Path of a marker file; the first worker task to claim it sleeps
#: far past any sane deadline (simulates a wedged worker).
HANG_ONCE_ENV = "REPRO_RUNNER_HANG_ONCE_FILE"

_POLL_S = 0.1

#: A retried task waits ``min(BACKOFF_BASE_S * 2**(attempt-1),
#: BACKOFF_CAP_S)`` seconds before it is assigned again.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0


def _claim_marker(path: str) -> bool:
    """Atomically claim a one-shot marker file (exclusive create)."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return False
    os.close(fd)
    return True


def _maybe_fault_hooks() -> None:
    crash = os.environ.get(CRASH_ONCE_ENV)
    if crash and _claim_marker(crash):
        # Bypass interpreter shutdown entirely, like a SIGKILL would.
        os._exit(3)
    hang = os.environ.get(HANG_ONCE_ENV)
    if hang and _claim_marker(hang):
        time.sleep(3600)


def _worker_main(conn) -> None:
    """Worker loop: receive ``(index, spec)``, send back the outcome.

    ``None`` is the shutdown sentinel.  Exceptions are reported as
    ``("error", index, message, retryable)``: a :class:`ReproError` is a
    deterministic verdict on the spec itself (``retryable=False``, the
    parent must not burn backoff sleeps on it), anything else is
    environmental and worth a retry.  Whatever kills the process
    outright (crash hook, OOM, signal) surfaces as EOF on the pipe.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, spec = message
        _maybe_fault_hooks()
        try:
            record = execute_spec(spec)
        except Exception as exc:  # noqa: BLE001 - classified by parent
            conn.send(
                (
                    "error",
                    index,
                    f"{type(exc).__name__}: {exc}",
                    not isinstance(exc, ReproError),
                )
            )
            continue
        conn.send(("done", index, record))


class _WorkerHandle:
    def __init__(self, ctx):
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[int] = None
        self.deadline: Optional[float] = None

    def assign(self, index: int, spec: Spec, timeout_s: Optional[float]):
        self.task = index
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        self.conn.send((index, spec))

    def free(self) -> None:
        self.task = None
        self.deadline = None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()


def run_hardened(
    specs: Sequence[Spec],
    workers: int,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    on_record: Optional[Callable[[dict], None]] = None,
) -> List[dict]:
    """Execute every spec, surviving worker crashes and hangs.

    Returns records in spec order.  ``on_record`` fires in *completion*
    order as each record arrives (the runner's cache puts hook in here).
    Raises :class:`RunnerError` when a spec exhausts its retry budget or
    fails deterministically.
    """
    if workers < 1:
        raise RunnerError(f"need >= 1 worker, got {workers}")
    if retries < 0:
        raise RunnerError(f"negative retry budget {retries}")
    specs = list(specs)
    if not specs:
        return []
    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    results: Dict[int, dict] = {}
    pending: List[int] = list(range(len(specs)))  # ready to assign, FIFO
    retry_heap: List[tuple] = []  # (ready_at_monotonic, index)
    attempts: Dict[int, int] = {}
    pool: List[_WorkerHandle] = [
        _WorkerHandle(ctx) for _ in range(min(workers, len(specs)))
    ]

    def fail_everything(message: str) -> RunnerError:
        for handle in pool:
            handle.kill()
        return RunnerError(message)

    def requeue(handle: _WorkerHandle, why: str) -> None:
        index = handle.task
        handle.free()
        attempt = attempts.get(index, 0) + 1
        attempts[index] = attempt
        if attempt > retries:
            raise fail_everything(
                f"spec {index} ({specs[index]!r}) failed {attempt}x,"
                f" retry budget {retries} exhausted; last failure: {why}"
            )
        delay = capped_exponential(attempt, BACKOFF_BASE_S, BACKOFF_CAP_S)
        heapq.heappush(retry_heap, (time.monotonic() + delay, index))

    try:
        while len(results) < len(specs):
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                pending.append(heapq.heappop(retry_heap)[1])
            for handle in list(pool):
                if handle.task is None and pending:
                    index = pending.pop(0)
                    try:
                        handle.assign(index, specs[index], timeout_s)
                    except OSError:
                        # Died while idle; replace it and re-assign.
                        handle.kill()
                        pool.remove(handle)
                        pool.append(_WorkerHandle(ctx))
                        pool[-1].assign(index, specs[index], timeout_s)
            busy = {h.conn: h for h in pool if h.task is not None}
            if not busy:
                if pending or retry_heap:
                    time.sleep(_POLL_S)
                    continue
                raise fail_everything(
                    "runner stalled: tasks outstanding but none assigned"
                )
            # Wake no later than the first deadline, so a task that
            # blows it is reaped even when no other task completes.
            wait_s = _POLL_S
            for handle in busy.values():
                if handle.deadline is not None:
                    wait_s = min(wait_s, handle.deadline - now)
            for conn in connection_wait(list(busy), timeout=max(wait_s, 0)):
                handle = busy[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task (crash, OOM-kill, ...).
                    dead = handle.task
                    handle.kill()
                    pool.remove(handle)
                    pool.append(_WorkerHandle(ctx))
                    replacement = pool[-1]
                    replacement.task = dead  # requeue() reads .task
                    requeue(replacement, "worker process died")
                    continue
                kind, index, payload = message[0], message[1], message[2]
                if kind == "error":
                    retryable = message[3]
                    if not retryable:
                        # A ReproError is a pure function of the spec:
                        # fail the batch NOW, with zero backoff sleeps.
                        raise fail_everything(
                            f"spec {index} ({specs[index]!r}) raised in a"
                            f" worker (deterministic, not retried):"
                            f" {payload}"
                        )
                    # Environmental failure in a still-healthy worker:
                    # the process survives, only the task is requeued.
                    requeue(handle, f"worker raised: {payload}")
                    continue
                results[index] = payload
                if on_record is not None:
                    on_record(payload)
                handle.free()
            now = time.monotonic()
            for handle in list(pool):
                if (
                    handle.task is not None
                    and handle.deadline is not None
                    and now > handle.deadline
                ):
                    stuck = handle.task
                    handle.kill()
                    pool.remove(handle)
                    pool.append(_WorkerHandle(ctx))
                    replacement = pool[-1]
                    replacement.task = stuck
                    requeue(
                        replacement,
                        f"task exceeded its {timeout_s}s deadline",
                    )
    finally:
        for handle in pool:
            if handle.process.is_alive() and handle.task is None:
                try:
                    handle.conn.send(None)
                except (OSError, BrokenPipeError):
                    pass
            handle.kill()
    return [results[i] for i in range(len(specs))]
