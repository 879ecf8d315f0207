"""The persistent solver service and its coalescing batch scheduler.

``CourcelleSolver.solve_many`` shards a batch across a one-shot
``multiprocessing.Pool``: correct, but every call re-pickles the solver
and cold-starts a pool, so repeated small batches pay startup each time
-- the opposite of what Theorem 4.5's compile-once amortization
promises.  :class:`SolverService` keeps the pool alive:

* **Long-lived workers.**  Each worker process rebuilds a solver
  exactly once per registered program from the same pickle handoff the
  one-shot pool uses (``CourcelleSolver.__getstate__``: compiled
  program + prepared grounding plans + demand-relevance set), then
  holds it warm -- ``ProgramCache`` populated, plans resident.
  Compilation and planning never happen on the request path.
* **Coalescing batch scheduler.**  ``submit()`` / ``submit_many()``
  enqueue individual requests and return
  :class:`concurrent.futures.Future`\\ s.  While all workers are busy,
  requests accumulate; whenever workers go idle the scheduler groups
  the queue *per compiled program* (:func:`coalesce`), cuts each group
  into shards sized to the idle capacity (capped at ``max_shard``), and
  dispatches.  Results resolve one future per request, positionally, so
  out-of-order shard completion can never misassign or reorder answers.
* **Backpressure.**  The request queue is bounded (``max_pending``);
  ``submit(block=True)`` waits for space, ``block=False`` raises
  :class:`ServiceSaturated` so callers can shed load.
* **Graceful shutdown.**  ``shutdown(drain=True)`` stops intake,
  drains the queue and all in-flight shards, then stops the workers;
  ``drain=False`` cancels queued requests and abandons in-flight work.
  Workers that ignore the stop message are escalated ``terminate()``
  -> ``kill()`` after ``shutdown_grace`` so a hung solve can never
  leak a process silently.
* **Fault tolerance.**  The paper's linear-time guarantee holds *for
  structures of bounded treewidth*; a service facing arbitrary inputs
  must survive requests that blow time, memory, or the worker itself:

  - a worker that dies mid-shard (OOM-killed, segfaulted C extension,
    ``os._exit``) is detected by the result collector, replaced, and
    its lost shards are **retried with exponential backoff** -- at most
    ``max_retries`` attempts per request, multi-request shards split
    into singletons on retry so one bad structure cannot re-kill its
    shard-mates' attempts;
  - a request that crashed its worker ``max_retries`` times fails with
    :class:`PoisonInput` (structure fingerprint + crash history
    attached) and is **fingerprint-quarantined**: repeat submissions
    fail fast without touching a worker, until
    :meth:`SolverService.evict_quarantine`;
  - per-request ``timeout=``/``deadline=`` fail expired requests with
    :class:`DeadlineExceeded` at (or instead of) dispatch, and a worker
    whose whole in-flight shard is past its deadlines is killed and
    counted (``workers_killed_overdue``) -- the backstop that also
    recovers hung solves and dropped results;
  - a service-wide :class:`repro.datalog.SolveBudget` makes the
    quasi-guarded fixpoint loops raise
    :class:`repro.datalog.BudgetExceeded` *cooperatively* (the worker
    survives, its warm cache intact); ``fallback_backend`` optionally
    reroutes over-budget solves to a sibling pipeline (e.g. streamed
    -> eager) instead of failing them;
  - all of it is testable on demand through
    :mod:`repro.service.faults` -- deterministic crash / slow / drop /
    stall injection at named sites.

  The long-form contract lives in the package README's "Failure
  semantics" section.

Thread-safety note: the scheduler and collector are threads inside the
submitting process, which is exactly what turned the previously latent
single-threaded assumptions of ``ProgramCache`` into real races -- see
the PR 6 lock in :class:`repro.datalog.backends.ProgramCache`.  Future
callbacks added to returned futures run on the collector thread; they
must not block.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from multiprocessing.connection import wait as _pipe_wait
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..admission import POLICIES
from ..core.solver import _QG_MODES, default_worker_count
from ..datalog.backends import available_backends, program_fingerprint
from ..datalog.budget import BudgetExceeded, SolveBudget
from ..errors import AdmissionRejected
from ..structures.structure import structure_fingerprint
from .faults import FaultPlan

__all__ = [
    "DeadlineExceeded",
    "PoisonInput",
    "ProgramHandle",
    "QuarantineRecord",
    "ServiceClosed",
    "ServiceSaturated",
    "ServiceStats",
    "ShardFailed",
    "SolverService",
    "coalesce",
    "structure_fingerprint",
]

#: exit code of a fault-injected worker crash (``crash@worker.solve``)
FAULT_CRASH_EXIT = 43

#: most quarantined fingerprints kept at once; past it the least
#: recently submitted record is evicted, so a stream of distinct
#: poison or rejected inputs cannot grow the service's memory
QUARANTINE_CAPACITY = 1024


class ServiceClosed(RuntimeError):
    """Raised by ``submit`` after ``shutdown()`` has been called."""


class ServiceSaturated(RuntimeError):
    """Raised by ``submit(block=False)`` when the queue is at
    ``max_pending`` -- the backpressure signal."""


class ShardFailed(RuntimeError):
    """A worker raised while solving a request; carries the worker-side
    traceback plus the structure fingerprint and program key, so a
    failed request is diagnosable from the caller side alone."""

    def __init__(
        self,
        message: str,
        *,
        fingerprint: str | None = None,
        program_key: str | None = None,
    ):
        super().__init__(message)
        self.fingerprint = fingerprint
        self.program_key = program_key


class DeadlineExceeded(RuntimeError):
    """A request's deadline passed before a worker could finish it.

    Raised on the request's future -- at submit time (deadline already
    past), at dispatch time (expired while queued), or by the
    collector's expiry tick (expired while waiting / in flight)."""


class PoisonInput(RuntimeError):
    """A request's structure crashed its worker ``max_retries`` times.

    ``fingerprint`` identifies the structure
    (:func:`structure_fingerprint`), ``program_key`` the registered
    program it was solved under, ``crashes`` how many workers it took
    down, and ``history`` the crash log.  The fingerprint is
    quarantined: repeat submissions fail fast with this same exception
    until :meth:`SolverService.evict_quarantine`."""

    def __init__(
        self,
        message: str,
        *,
        fingerprint: str,
        program_key: str | None = None,
        crashes: int = 0,
        history: tuple[str, ...] = (),
    ):
        super().__init__(message)
        self.fingerprint = fingerprint
        self.program_key = program_key
        self.crashes = crashes
        self.history = history


@dataclass
class ServiceStats:
    """Counters over the service's lifetime (read-only for callers)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shards_dispatched: int = 0
    #: shards lost to a worker crash and dispatched again
    shards_resubmitted: int = 0
    worker_restarts: int = 0
    peak_queue_depth: int = 0
    #: requests failed with :class:`DeadlineExceeded`
    deadline_expired: int = 0
    #: requests re-attempted after their worker crashed
    retries: int = 0
    #: requests failed with :class:`PoisonInput` (first time each)
    poisoned: int = 0
    #: submissions fast-failed because their fingerprint is quarantined
    quarantine_rejections: int = 0
    #: current quarantine population (at most ``QUARANTINE_CAPACITY``)
    quarantine_size: int = 0
    #: records evicted because the quarantine was full
    quarantine_evictions: int = 0
    #: requests failed with :class:`repro.datalog.BudgetExceeded`
    budget_exceeded: int = 0
    #: over-budget requests answered by the fallback backend
    fallback_solves: int = 0
    #: admission verdicts (requests served through the admission
    #: ladder: clean, repaired/re-decomposed, served degraded)
    admitted: int = 0
    repaired: int = 0
    degraded: int = 0
    #: requests failed with :class:`repro.errors.AdmissionRejected`
    admission_rejected: int = 0
    #: terminate()/kill() escalations during shutdown
    shutdown_escalations: int = 0
    #: workers killed because their whole shard was past its deadlines
    workers_killed_overdue: int = 0
    #: crash-to-result latency of each resubmitted shard, milliseconds
    recovery_ms: list = field(default_factory=list)


@dataclass
class QuarantineRecord:
    """One quarantined poison input, as reported by
    :meth:`SolverService.quarantined`."""

    fingerprint: str
    program_key: str
    crashes: int
    history: tuple[str, ...]
    #: submissions fast-failed against this record since quarantine
    rejections: int = 0
    #: why the fingerprint is quarantined: ``"crash"`` (it killed
    #: workers) or ``"admission"`` (it was rejected by the ladder)
    reason: str = "crash"
    #: for admission quarantines: the original
    #: :class:`repro.errors.AdmissionRejected` (report attached),
    #: re-raised verbatim on repeat submissions
    error: BaseException | None = None


class _Request:
    """One queued solve: a structure (plus optional decomposition), the
    future its answer resolves, and its fault-tolerance state."""

    __slots__ = (
        "structure",
        "td",
        "future",
        "deadline",
        "admission",
        "crashes",
        "history",
        "_fp",
    )

    def __init__(
        self,
        structure,
        td,
        future: Future,
        deadline: float | None,
        admission: str | None = None,
    ):
        self.structure = structure
        self.td = td
        self.future = future
        #: absolute ``time.monotonic()`` deadline, or None
        self.deadline = deadline
        #: resolved admission policy (request override or service
        #: default), or None for the legacy trusting path
        self.admission = admission
        #: how many workers died while this request was in flight
        self.crashes = 0
        #: human-readable crash log (becomes ``PoisonInput.history``)
        self.history: list[str] = []
        self._fp: str | None = None

    @property
    def fingerprint(self) -> str:
        fp = self._fp
        if fp is None:
            fp = self._fp = structure_fingerprint(self.structure)
        return fp


class _Shard:
    """A dispatchable unit: consecutive requests of one program.

    ``dispatched`` flips on first hand-off to a worker; a crash
    resubmission re-sends a shard object (same futures, already in the
    running state) to a fresh worker, no earlier than ``not_before``
    (the retry backoff) and with ``resubmitted_at`` stamped so the
    collector can measure crash-to-result recovery latency.
    """

    __slots__ = (
        "shard_id",
        "key",
        "requests",
        "dispatched",
        "worker",
        "not_before",
        "resubmitted_at",
    )

    def __init__(self, shard_id: int, key: str, requests: list[_Request]):
        self.shard_id = shard_id
        self.key = key
        self.requests = requests
        self.dispatched = False
        self.worker: "_Worker | None" = None
        self.not_before = 0.0
        self.resubmitted_at: float | None = None


class _Worker:
    """A worker process plus its task queue, its private result pipe,
    and parent-side book-keeping (which programs it has loaded, which
    shards it is running).

    Results come back over a **per-worker pipe**, not a shared queue:
    a shared ``multiprocessing.Queue`` serializes every ``put`` through
    one cross-process semaphore, and a worker dying mid-``put`` (a real
    crash can land anywhere) leaves that semaphore acquired forever --
    wedging every *surviving* worker's results.  With one pipe per
    worker there is no cross-process lock at all; a crash can only
    corrupt the dead worker's own pipe, which its replacement does not
    share."""

    __slots__ = (
        "process",
        "tasks",
        "results",
        "loaded",
        "inflight",
        "overdue_killed",
        "eof",
    )

    def __init__(self, process, tasks, results):
        self.process = process
        self.tasks = tasks
        #: parent-side read end of the worker's result pipe
        self.results = results
        self.loaded: set[str] = set()
        self.inflight: dict[int, _Shard] = {}
        self.overdue_killed = False
        #: the pipe reached EOF (worker exited); stop select()-ing it
        self.eof = False


def _solve_request(solver, structure, td, budget, fallback, key, fallbacks, admission=None):
    """Solve one request inside a worker; an outcome tuple.

    ``("ok", value)`` / ``("fb", value)`` (answered by the fallback
    backend) / ``("adm", verdict, value)`` (served through the
    admission ladder) / ``("rej", exc)`` (rejected by it) /
    ``("budget", message, dimension, limit, consumed)`` /
    ``("err", brief, traceback)``.  Per-request, so one failing
    structure cannot take down its shard-mates' answers -- and with
    admission on, a malformed request resolves as a typed rejection
    instead of whatever the trusting pipeline would have thrown."""
    solve_one = solver.decide if solver.compiled.is_sentence else solver.query
    try:
        try:
            if admission is not None:
                answer, report = solver.solve_admitted(
                    structure, td, policy=admission, budget=budget
                )
                return ("adm", report.verdict, answer)
            return ("ok", solve_one(structure, td, budget=budget))
        except AdmissionRejected as exc:
            return ("rej", exc)
        except BudgetExceeded as exc:
            if fallback is None:
                return ("budget", str(exc), exc.dimension, exc.limit, exc.consumed)
            sibling = fallbacks.get(key)
            if sibling is None:
                sibling = fallbacks[key] = solver.with_backend(fallback)
            # the fallback runs unbudgeted: it is the degradation path,
            # and the deadline/overdue-kill backstop still applies
            if admission is not None:
                try:
                    answer, _report = sibling.solve_admitted(
                        structure, td, policy=admission
                    )
                    return ("fb", answer)
                except AdmissionRejected as rej:
                    return ("rej", rej)
            fb_solve = (
                sibling.decide if sibling.compiled.is_sentence else sibling.query
            )
            return ("fb", fb_solve(structure, td))
    except BaseException as exc:
        return ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _service_worker_main(
    tasks, results, faults_text=None, budget=None, fallback=None
) -> None:
    """Worker process loop.

    Solvers arrive once per program as a pickled payload (``"load"``)
    and stay resident -- the per-worker ``default_cache()`` fills on the
    first solve and every later shard of the same program runs warm.
    Shards (``"solve"``) evaluate request-by-request and send one
    ``("done", shard_id, outcomes)`` (or ``("error", ...)`` for
    shard-level failures) per shard over this worker's private result
    pipe.

    ``faults_text`` re-parses into this process's own
    :class:`~repro.service.faults.FaultPlan` (fresh counters per
    worker, so "this worker crashes once" survives respawn);
    ``budget`` / ``fallback`` are the service-wide solve budget and
    degradation backend.
    """
    faults = FaultPlan.parse(faults_text)
    solvers = {}
    fallbacks = {}
    while True:
        try:
            message = tasks.get()
        except (EOFError, OSError):  # parent went away
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "load":
            _, key, payload = message
            if key not in solvers:
                solvers[key] = pickle.loads(payload)
            continue
        # ("solve", shard_id, key, [(structure, td, admission), ...])
        _, shard_id, key, items = message
        try:
            solver = solvers[key]
            outcomes = []
            for structure, td, admission in items:
                if faults and faults.induce("worker.solve") == "crash":
                    os._exit(FAULT_CRASH_EXIT)
                outcomes.append(
                    _solve_request(
                        solver,
                        structure,
                        td,
                        budget,
                        fallback,
                        key,
                        fallbacks,
                        admission,
                    )
                )
        except BaseException as exc:  # report, don't kill the worker
            reply = (
                "error",
                shard_id,
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        else:
            if faults and faults.induce("worker.result") == "drop":
                continue  # injected result loss: deadline backstop recovers
            reply = ("done", shard_id, outcomes)
        try:
            results.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            return


def coalesce(
    pending, idle_workers: int, max_shard: int
) -> list[tuple[str, list]]:
    """Group queued ``(program_key, request)`` pairs per compiled
    program (preserving arrival order within each program) and cut each
    group into shards sized for the idle capacity.

    The shard size is ``ceil(group / idle_workers)`` capped at
    ``max_shard`` and floored at 1: a burst of one program spreads
    across every idle worker instead of serializing on one, while a
    trickle stays one small shard.  Pure function -- unit-tested
    directly, used under the service lock.
    """
    if idle_workers < 1:
        raise ValueError("coalesce needs at least one idle worker")
    groups: dict[str, list] = {}
    for key, request in pending:
        groups.setdefault(key, []).append(request)
    shards: list[tuple[str, list]] = []
    for key, requests in groups.items():
        per_shard = max(
            1, min(max_shard, -(-len(requests) // idle_workers))
        )
        for i in range(0, len(requests), per_shard):
            shards.append((key, requests[i : i + per_shard]))
    return shards


class ProgramHandle:
    """One registered compiled program on a :class:`SolverService`.

    Obtained from :meth:`SolverService.register`; all submissions go
    through a handle so the service knows which warm solver a request
    belongs to (and which requests can coalesce into one shard).
    """

    __slots__ = ("_service", "key")

    def __init__(self, service: "SolverService", key: str):
        self._service = service
        self.key = key

    def submit(
        self,
        structure,
        td=None,
        *,
        block: bool = True,
        timeout: float | None = None,
        deadline: float | None = None,
        admission: str | None = None,
    ) -> Future:
        """Enqueue one solve; returns the future of its answer.

        ``timeout`` (seconds from now) or ``deadline`` (absolute
        ``time.monotonic()`` value) bound how long the request may wait
        + run: an expired request fails with :class:`DeadlineExceeded`
        instead of occupying a worker.  A quarantined structure fails
        fast with :class:`PoisonInput` (or, for admission-quarantined
        fingerprints, the stored
        :class:`repro.errors.AdmissionRejected`) -- in both cases the
        returned future is already resolved.

        ``admission`` routes this request through the admission ladder
        under that policy (overriding the service-wide default);
        rejected requests fail their future with ``AdmissionRejected``
        and quarantine their fingerprint."""
        if timeout is not None:
            if deadline is not None:
                raise ValueError("pass timeout= or deadline=, not both")
            deadline = time.monotonic() + timeout
        return self._service._submit(
            self.key,
            structure,
            td,
            block=block,
            deadline=deadline,
            admission=admission,
        )

    def submit_many(
        self,
        structures,
        tds=None,
        *,
        block: bool = True,
        timeout: float | None = None,
        deadline: float | None = None,
        admission: str | None = None,
    ) -> list[Future]:
        """Enqueue a batch; returns one future per structure, in input
        order.  ``timeout`` is converted to one shared deadline for the
        whole batch (not per request)."""
        structures = list(structures)
        if tds is None:
            tds = [None] * len(structures)
        else:
            tds = list(tds)
            if len(tds) != len(structures):
                raise ValueError(
                    f"{len(structures)} structures but {len(tds)} "
                    "decompositions"
                )
        if timeout is not None:
            if deadline is not None:
                raise ValueError("pass timeout= or deadline=, not both")
            deadline = time.monotonic() + timeout
        return [
            self.submit(
                s, td, block=block, deadline=deadline, admission=admission
            )
            for s, td in zip(structures, tds)
        ]

    def solve_many(
        self, structures, tds=None, timeout=None, admission=None
    ) -> list:
        """Submit a batch and wait: the blocking convenience mirror of
        ``CourcelleSolver.solve_many`` (same result list, same input
        order), served by the warm pool.

        ``timeout`` bounds the **whole batch**: one shared monotonic
        deadline is computed up front, threaded to every request, and
        each wait gets only the remainder -- the total wait is at most
        ``timeout``, never N x timeout.

        With admission active (per-call ``admission=`` or the
        service-wide default), rejected items resolve **per slot**: the
        result list holds each rejected request's
        :class:`repro.errors.AdmissionRejected` in place of an answer
        instead of the whole batch raising on the first bad input."""
        deadline = None if timeout is None else time.monotonic() + timeout
        effective = (
            admission if admission is not None else self._service.admission
        )
        futures = self.submit_many(
            structures, tds, deadline=deadline, admission=admission
        )
        results = []
        for future in futures:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                results.append(future.result(remaining))
            except AdmissionRejected as exc:
                if effective is None:
                    raise
                results.append(exc)
        return results


class SolverService:
    """A persistent pool of solver workers behind a batch scheduler.

    ``workers`` defaults to :func:`default_worker_count`.
    ``max_pending`` bounds the request queue (backpressure);
    ``max_shard`` caps how many requests one dispatch bundles.
    ``context`` picks the multiprocessing start method (name or
    context object); the platform default is used otherwise.

    Fault tolerance knobs:

    * ``max_retries`` -- attempts per request before it is declared
      :class:`PoisonInput` and quarantined (so a request's shard may
      kill a worker at most ``max_retries`` times);
    * ``retry_backoff`` -- base delay before a crashed shard is
      re-dispatched, doubled per crash of the request
      (``backoff * 2**(crashes-1)``);
    * ``budget`` -- a :class:`repro.datalog.SolveBudget` applied to
      every solve (cooperative: over-budget solves raise
      :class:`repro.datalog.BudgetExceeded`, the worker survives);
    * ``fallback_backend`` -- a ``CourcelleSolver`` backend name that
      answers over-budget solves instead of failing them (e.g.
      ``"quasi-guarded-eager"``), unbudgeted;
    * ``faults`` -- a :class:`~repro.service.faults.FaultPlan` (or its
      spec string) arming deterministic fault injection; defaults to
      ``FaultPlan.from_env()`` (the ``REPRO_SERVICE_FAULTS``
      variable), empty in production;
    * ``shutdown_grace`` -- seconds each shutdown join waits before
      escalating terminate() -> kill();
    * ``admission`` -- an :data:`repro.admission.POLICIES` name
      (``"strict"`` / ``"repair"`` / ``"degrade"``) routing every
      request through the untrusted-input admission ladder by default
      (per-request ``admission=`` overrides); rejected fingerprints
      are quarantined like poison inputs, and their stored
      :class:`repro.errors.AdmissionRejected` fast-fails repeat
      submissions.

    Use as a context manager for a drained shutdown::

        with SolverService(workers=4) as service:
            handle = service.register(solver)
            futures = handle.submit_many(structures)
            answers = [f.result() for f in futures]
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        max_pending: int = 1024,
        max_shard: int = 64,
        poll_interval: float = 0.05,
        context=None,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
        budget: SolveBudget | None = None,
        fallback_backend: str | None = None,
        faults: "FaultPlan | str | None" = None,
        shutdown_grace: float = 5.0,
        admission: str | None = None,
    ):
        if workers is None:
            workers = default_worker_count()
        if workers < 1:
            raise ValueError("a solver service needs at least one worker")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if max_shard < 1:
            raise ValueError("max_shard must be positive")
        if max_retries < 1:
            raise ValueError("max_retries must be positive")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if budget is not None and not isinstance(budget, SolveBudget):
            raise TypeError(
                f"budget must be a SolveBudget, got {type(budget).__name__}"
            )
        if fallback_backend is not None:
            known = set(_QG_MODES) | set(available_backends())
            if fallback_backend not in known:
                raise ValueError(
                    f"unknown fallback backend {fallback_backend!r}; "
                    f"expected one of {sorted(known)}"
                )
        if admission is not None and admission not in POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"expected one of {POLICIES}"
            )
        #: service-wide admission policy default (per-request
        #: ``admission=`` overrides); None keeps the trusting paths
        self.admission = admission
        self.max_pending = max_pending
        self.max_shard = max_shard
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.shutdown_grace = shutdown_grace
        self.budget = (
            None if budget is not None and budget.unlimited else budget
        )
        self.fallback_backend = fallback_backend
        if faults is None:
            faults = FaultPlan.from_env()
        elif isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        self._faults = faults
        self._poll = poll_interval
        if context is None:
            self._ctx = multiprocessing.get_context()
        elif isinstance(context, str):
            self._ctx = multiprocessing.get_context(context)
        else:
            self._ctx = context
        self.stats = ServiceStats()
        self._lock = threading.Lock()
        #: scheduler wake-ups and drain waiters
        self._work = threading.Condition(self._lock)
        #: backpressure waiters (same lock, separate wait set)
        self._space = threading.Condition(self._lock)
        self._pending: deque[tuple[str, _Request]] = deque()
        self._shards: deque[_Shard] = deque()  # shaped, awaiting a worker
        self._inflight: dict[int, _Shard] = {}
        self._queued = 0  # requests in _pending + undispatched _shards
        self._payloads: dict[str, bytes] = {}
        self._handles: dict[str, ProgramHandle] = {}
        #: fingerprint -> record, least recently submitted first
        self._quarantine: OrderedDict[str, QuarantineRecord] = OrderedDict()
        self._shard_seq = itertools.count(1)
        self._worker_seq = itertools.count(1)
        self._closed = False
        self._stopped = False
        self._collector_stop = threading.Event()
        self._workers = [self._spawn_worker() for _ in range(workers)]
        self._scheduler = threading.Thread(
            target=self._scheduler_loop,
            name="solver-service-scheduler",
            daemon=True,
        )
        self._collector = threading.Thread(
            target=self._collector_loop,
            name="solver-service-collector",
            daemon=True,
        )
        self._scheduler.start()
        self._collector.start()

    # -- lifecycle -----------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet handed to a worker."""
        with self._lock:
            return self._queued

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def register(self, solver) -> ProgramHandle:
        """Register a ``CourcelleSolver``; idempotent per (backend,
        compiled program).

        The solver is pickled **once** here -- the same
        ``__getstate__`` handoff the one-shot pool uses (compiled
        program + prepared plans + relevance set) -- and shipped lazily
        to each worker the first time a shard of this program reaches
        it.  Registering an equal solver again (same program
        fingerprint, backend, width) returns the existing handle
        without re-pickling.
        """
        compiled = solver.compiled
        key = ":".join(
            (
                solver.backend_name,
                str(compiled.width),
                "sentence" if compiled.is_sentence else "unary",
                program_fingerprint(compiled.program),
            )
        )
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
            handle = self._handles.get(key)
        if handle is not None:
            return handle
        payload = pickle.dumps(solver)  # outside the lock: can be large
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
            handle = self._handles.get(key)
            if handle is None:
                handle = ProgramHandle(self, key)
                self._handles[key] = handle
                self._payloads[key] = payload
        return handle

    def solve_many(
        self, solver, structures, tds=None, timeout=None, admission=None
    ) -> list:
        """``CourcelleSolver.solve_many(..., service=self)`` lands
        here: register (cached) and solve the batch on the warm pool."""
        return self.register(solver).solve_many(
            structures, tds, timeout, admission=admission
        )

    # -- quarantine ----------------------------------------------------

    def quarantined(self) -> tuple[QuarantineRecord, ...]:
        """The current quarantine population (snapshot)."""
        with self._lock:
            return tuple(self._quarantine.values())

    def evict_quarantine(self, fingerprint: str | None = None) -> int:
        """Evict one fingerprint (or all of them); how many were
        evicted.  Evicted structures may be submitted again -- they get
        a fresh ``max_retries`` allowance."""
        with self._lock:
            if fingerprint is None:
                count = len(self._quarantine)
                self._quarantine.clear()
            else:
                count = int(self._quarantine.pop(fingerprint, None) is not None)
            self.stats.quarantine_size = len(self._quarantine)
        return count

    def shutdown(self, drain: bool = True, timeout: float | None = None):
        """Stop the service.

        ``drain=True`` (the default) stops intake, waits until every
        queued request and in-flight shard has resolved, then stops the
        workers -- no accepted request is ever dropped (crash recovery,
        retries and quarantine keep running during the drain, so a
        worker dying mid-drain cannot hang it).  ``drain=False``
        cancels queued requests, abandons in-flight shards (their
        futures get :class:`ServiceClosed`), and terminates the workers
        immediately.  Idempotent; ``timeout`` bounds the drain wait.
        Workers that outlive ``shutdown_grace`` per join are escalated
        terminate() -> kill() and counted in
        ``stats.shutdown_escalations``.
        """
        abandoned: list[Future] = []
        with self._work:
            if self._stopped:
                return
            self._closed = True
            self._space.notify_all()
            if not drain:
                for _key, request in self._pending:
                    request.future.cancel()
                self._pending.clear()
                for shard in self._shards:
                    for request in shard.requests:
                        if not request.future.cancel():
                            abandoned.append(request.future)
                self._shards.clear()
                self._queued = 0
                for shard in self._inflight.values():
                    abandoned.extend(
                        request.future for request in shard.requests
                    )
                self._inflight.clear()
                for worker in self._workers:
                    worker.inflight.clear()
            else:
                deadline = (
                    None
                    if timeout is None
                    else time.monotonic() + timeout
                )
                while self._queued or self._inflight or self._shards:
                    self._work.wait(self._poll)
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                if self._queued or self._inflight or self._shards:
                    # drain timed out: abandon what's left so no future
                    # hangs forever after the workers stop
                    for _key, request in self._pending:
                        if not request.future.cancel():
                            abandoned.append(request.future)
                    self._pending.clear()
                    for shard in self._shards:
                        for request in shard.requests:
                            if not request.future.cancel():
                                abandoned.append(request.future)
                    self._shards.clear()
                    self._queued = 0
                    for shard in self._inflight.values():
                        abandoned.extend(
                            request.future for request in shard.requests
                        )
                    self._inflight.clear()
            self._stopped = True
            self._work.notify_all()
        # past this point no thread dispatches or resolves anything new
        for future in abandoned:
            if not future.done():
                future.set_exception(
                    ServiceClosed("service shut down without draining")
                )
        for worker in self._workers:
            if worker.process.is_alive():
                if drain:
                    try:
                        worker.tasks.put(("stop",))
                    except (OSError, ValueError):  # pragma: no cover
                        pass
                else:
                    worker.process.terminate()
        self._scheduler.join(timeout=self.shutdown_grace)
        for worker in self._workers:
            worker.process.join(timeout=self.shutdown_grace)
            if worker.process.is_alive():
                # the stop message was ignored (hung or very slow
                # solve): escalate rather than leak the process
                worker.process.terminate()
                self.stats.shutdown_escalations += 1
                worker.process.join(timeout=self.shutdown_grace)
                if worker.process.is_alive():  # pragma: no cover - SIGTERM ignored
                    worker.process.kill()
                    self.stats.shutdown_escalations += 1
                    worker.process.join(timeout=self.shutdown_grace)
        self._collector_stop.set()
        self._collector.join(timeout=5)
        for worker in self._workers:
            try:
                worker.results.close()
            except OSError:  # pragma: no cover
                pass

    close = shutdown

    # -- submission ----------------------------------------------------

    def _submit(
        self,
        key,
        structure,
        td,
        *,
        block: bool = True,
        deadline=None,
        admission=None,
    ) -> Future:
        future: Future = Future()
        request = _Request(
            structure,
            td,
            future,
            deadline,
            admission if admission is not None else self.admission,
        )
        reject: BaseException | None = None
        with self._space:
            if self._closed:
                raise ServiceClosed("service is shut down")
            if key not in self._payloads:
                raise KeyError(f"program {key!r} is not registered")
            if self._quarantine:
                record = self._quarantine.get(request.fingerprint)
                if record is not None:
                    self._quarantine.move_to_end(request.fingerprint)
                    record.rejections += 1
                    self.stats.quarantine_rejections += 1
                    if record.reason == "admission" and record.error is not None:
                        # fail fast with the original typed rejection
                        # (report attached), not a crash-flavoured one
                        reject = record.error
                    else:
                        reject = PoisonInput(
                            f"structure {record.fingerprint} is quarantined: it "
                            f"crashed its worker {record.crashes} time(s) "
                            f"(program {record.program_key}); "
                            f"evict_quarantine() to retry it",
                            fingerprint=record.fingerprint,
                            program_key=record.program_key,
                            crashes=record.crashes,
                            history=record.history,
                        )
            if reject is None and deadline is not None:
                late = time.monotonic() - deadline
                if late >= 0:
                    self.stats.deadline_expired += 1
                    reject = DeadlineExceeded(
                        f"request deadline was already {late:.3f}s past "
                        "at submit"
                    )
            if reject is None:
                while self._queued >= self.max_pending:
                    if not block:
                        raise ServiceSaturated(
                            f"request queue is full "
                            f"({self._queued}/{self.max_pending})"
                        )
                    self._space.wait(self._poll)
                    if self._closed:
                        raise ServiceClosed("service shut down while waiting")
                self._pending.append((key, request))
                self._queued += 1
                self.stats.submitted += 1
                if self._queued > self.stats.peak_queue_depth:
                    self.stats.peak_queue_depth = self._queued
                self._work.notify_all()
        if reject is not None:
            # fast-fail: resolve outside the lock, before anyone else
            # can see the future
            future.set_exception(reject)
        return future

    # -- scheduler -----------------------------------------------------

    def _idle_workers_locked(self) -> list[_Worker]:
        return [
            worker
            for worker in self._workers
            if not worker.inflight and worker.process.is_alive()
        ]

    def _dispatchable_locked(self) -> bool:
        return bool(
            (self._shards or self._pending) and self._idle_workers_locked()
        )

    def _scheduler_loop(self) -> None:
        faults = self._faults
        while True:
            with self._work:
                while not self._stopped and not self._dispatchable_locked():
                    # timed wait: worker deaths / respawns don't notify
                    self._work.wait(self._poll)
                if self._stopped:
                    return
            if faults:
                faults.induce("scheduler.dispatch")  # injected stall
            expired: list[tuple[_Request, BaseException]] = []
            with self._work:
                if self._stopped:
                    return
                self._dispatch_locked(expired)
            # deadline failures resolve outside the lock (future
            # callbacks run here and may re-enter the service)
            for request, exc in expired:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _dispatch_locked(self, expired) -> None:
        idle = deque(self._idle_workers_locked())
        # resubmissions and leftovers first: they are oldest.  Shards
        # still inside their retry backoff window are held back.
        if idle and self._shards:
            now = time.monotonic()
            held: list[_Shard] = []
            while idle and self._shards:
                shard = self._shards.popleft()
                if shard.not_before > now:
                    held.append(shard)
                    continue
                self._send_locked(idle.popleft(), shard, expired)
            for shard in reversed(held):
                self._shards.appendleft(shard)
        if not idle or not self._pending:
            return
        pending = list(self._pending)
        self._pending.clear()
        for key, requests in coalesce(pending, len(idle), self.max_shard):
            shard = _Shard(next(self._shard_seq), key, requests)
            if idle:
                self._send_locked(idle.popleft(), shard, expired)
            else:
                self._shards.append(shard)  # dispatched as workers free up

    def _send_locked(self, worker: _Worker, shard: _Shard, expired) -> None:
        now = time.monotonic()
        if not shard.dispatched:
            self._queued -= len(shard.requests)
            self._space.notify_all()
            # cancelled-while-queued requests drop out here; expired
            # ones fail with DeadlineExceeded instead of occupying a
            # worker; the rest transition to running (cancel() is
            # refused from now on)
            live = []
            for request in shard.requests:
                if not request.future.set_running_or_notify_cancel():
                    continue
                if request.deadline is not None and now >= request.deadline:
                    self.stats.deadline_expired += 1
                    self.stats.failed += 1
                    expired.append(
                        (
                            request,
                            DeadlineExceeded(
                                "request deadline expired "
                                f"{now - request.deadline:.3f}s before "
                                "dispatch"
                            ),
                        )
                    )
                    continue
                live.append(request)
            shard.requests = live
            shard.dispatched = True
        else:
            # a retry: futures are already running, but the wait in the
            # backoff window may have outlived some deadlines
            live = []
            for request in shard.requests:
                if request.deadline is not None and now >= request.deadline:
                    self.stats.deadline_expired += 1
                    self.stats.failed += 1
                    expired.append(
                        (
                            request,
                            DeadlineExceeded(
                                "request deadline expired "
                                f"{now - request.deadline:.3f}s before "
                                "its retry could dispatch"
                            ),
                        )
                    )
                    continue
                live.append(request)
            shard.requests = live
        if not shard.requests:
            return
        if shard.key not in worker.loaded:
            worker.tasks.put(("load", shard.key, self._payloads[shard.key]))
            worker.loaded.add(shard.key)
        shard.worker = worker
        self._inflight[shard.shard_id] = shard
        worker.inflight[shard.shard_id] = shard
        self.stats.shards_dispatched += 1
        worker.tasks.put(
            (
                "solve",
                shard.shard_id,
                shard.key,
                [
                    (request.structure, request.td, request.admission)
                    for request in shard.requests
                ],
            )
        )

    # -- result collection & crash recovery ----------------------------

    def _collect_messages(self) -> list:
        """Wait up to one poll interval on every live worker's result
        pipe and drain whatever arrived.  A pipe at EOF (its worker
        exited) is drained of any results the worker managed to flush
        before dying, then dropped from the select set -- crash
        recovery handles the rest."""
        with self._lock:
            readers = [
                (worker, worker.results)
                for worker in self._workers
                if not worker.eof
            ]
        if not readers:
            time.sleep(self._poll)
            return []
        try:
            ready = _pipe_wait([r for _w, r in readers], timeout=self._poll)
        except OSError:  # pragma: no cover - fd closed under us
            time.sleep(self._poll)
            return []
        ready = set(ready)
        messages = []
        for worker, reader in readers:
            if reader not in ready:
                continue
            try:
                while reader.poll(0):
                    messages.append(reader.recv())
            except (EOFError, OSError):
                worker.eof = True
        return messages

    def _collector_loop(self) -> None:
        faults = self._faults
        while not self._collector_stop.is_set():
            messages = self._collect_messages()
            if faults and messages:
                faults.induce("collector.result")  # injected stall
            completions: list[tuple[Future, object, BaseException | None]] = []
            with self._work:
                if self._stopped and not messages:
                    continue  # drain stragglers until told to stop
                for message in messages:
                    self._handle_message_locked(message, completions)
                if not self._stopped:
                    self._expire_locked(completions)
                    self._recover_workers_locked(completions)
                self._work.notify_all()
            # resolve outside the lock: done-callbacks run here and must
            # be free to touch the service (e.g. submit a follow-up)
            for future, value, exc in completions:
                if future.done():
                    continue  # resolved by a pre-crash duplicate result
                if exc is not None:
                    future.set_exception(exc)
                else:
                    future.set_result(value)

    def _handle_message_locked(self, message, completions) -> None:
        kind = message[0]
        shard = self._inflight.pop(message[1], None)
        if shard is None:
            # duplicate delivery: the shard was resubmitted after a
            # crash but the first worker's result surfaced anyway
            return
        if shard.worker is not None:
            shard.worker.inflight.pop(shard.shard_id, None)
        if shard.resubmitted_at is not None:
            self.stats.recovery_ms.append(
                round((time.monotonic() - shard.resubmitted_at) * 1000.0, 3)
            )
        if kind == "done":
            outcomes = message[2]
            for request, outcome in zip(shard.requests, outcomes):
                tag = outcome[0]
                if tag == "ok" or tag == "fb":
                    completions.append((request.future, outcome[1], None))
                    self.stats.completed += 1
                    if tag == "fb":
                        self.stats.fallback_solves += 1
                elif tag == "adm":
                    _, verdict, value = outcome
                    completions.append((request.future, value, None))
                    self.stats.completed += 1
                    if verdict == "repaired":
                        self.stats.repaired += 1
                    elif verdict == "degraded":
                        self.stats.degraded += 1
                    else:
                        self.stats.admitted += 1
                elif tag == "rej":
                    _, exc = outcome
                    completions.append((request.future, None, exc))
                    self.stats.admission_rejected += 1
                    self.stats.failed += 1
                    self._quarantine_rejection_locked(
                        request, shard.key, exc
                    )
                elif tag == "budget":
                    _, brief, dimension, limit, consumed = outcome
                    completions.append(
                        (
                            request.future,
                            None,
                            BudgetExceeded(
                                brief,
                                dimension=dimension,
                                limit=limit,
                                consumed=consumed,
                            ),
                        )
                    )
                    self.stats.budget_exceeded += 1
                    self.stats.failed += 1
                else:  # ("err", brief, worker_traceback)
                    _, brief, worker_tb = outcome
                    completions.append(
                        (
                            request.future,
                            None,
                            ShardFailed(
                                f"solver worker failed: {brief}\n"
                                f"(program {shard.key}; structure "
                                f"{request.fingerprint})\n"
                                f"--- worker traceback ---\n{worker_tb}",
                                fingerprint=request.fingerprint,
                                program_key=shard.key,
                            ),
                        )
                    )
                    self.stats.failed += 1
        else:  # ("error", shard_id, brief, worker_traceback) - shard-level
            _, _, brief, worker_tb = message
            for request in shard.requests:
                completions.append(
                    (
                        request.future,
                        None,
                        ShardFailed(
                            f"solver worker failed: {brief}\n"
                            f"(program {shard.key}; structure "
                            f"{request.fingerprint})\n"
                            f"--- worker traceback ---\n{worker_tb}",
                            fingerprint=request.fingerprint,
                            program_key=shard.key,
                        ),
                    )
                )
            self.stats.failed += len(shard.requests)

    def _expire_locked(self, completions) -> None:
        """The collector's deadline tick.

        Fails expired requests that are still queued (in ``_pending``
        or an undispatched/backoff shard), and kills the worker of any
        in-flight shard whose *every* request is past its deadline --
        the hard backstop behind hung solves and dropped results (the
        kill funnels into crash recovery, where the expired requests
        then fail with :class:`DeadlineExceeded`)."""
        now = time.monotonic()

        def expire(request: _Request) -> None:
            self.stats.deadline_expired += 1
            self.stats.failed += 1
            completions.append(
                (
                    request.future,
                    None,
                    DeadlineExceeded(
                        "request deadline expired "
                        f"{now - request.deadline:.3f}s ago while queued"
                    ),
                )
            )

        if self._pending and any(
            r.deadline is not None and now >= r.deadline
            for _k, r in self._pending
        ):
            kept: deque[tuple[str, _Request]] = deque()
            for key, request in self._pending:
                if request.deadline is not None and now >= request.deadline:
                    expire(request)
                    self._queued -= 1
                else:
                    kept.append((key, request))
            self._pending = kept
            self._space.notify_all()
        for shard in self._shards:
            if not shard.requests:
                continue
            live = []
            for request in shard.requests:
                if request.deadline is not None and now >= request.deadline:
                    expire(request)
                    if not shard.dispatched:
                        self._queued -= 1
                else:
                    live.append(request)
            if len(live) != len(shard.requests):
                shard.requests = live
                self._space.notify_all()
        for shard in self._inflight.values():
            if not shard.requests:
                continue
            worker = shard.worker
            if worker is None or worker.overdue_killed:
                continue
            if all(
                request.deadline is not None and now >= request.deadline
                for request in shard.requests
            ):
                if worker.process.is_alive():
                    worker.process.terminate()
                worker.overdue_killed = True
                self.stats.workers_killed_overdue += 1

    def _recover_workers_locked(self, completions) -> None:
        now = time.monotonic()
        for i, worker in enumerate(self._workers):
            if worker.process.is_alive():
                continue
            exitcode = worker.process.exitcode
            # salvage results the worker flushed before dying, so a
            # shard that actually completed is not charged as a crash
            if not worker.eof:
                try:
                    while worker.results.poll(0):
                        self._handle_message_locked(
                            worker.results.recv(), completions
                        )
                except (EOFError, OSError):
                    pass
                worker.eof = True
            try:
                worker.results.close()
            except OSError:  # pragma: no cover
                pass
            # the dead worker's remaining in-flight shards are lost;
            # retry them -- capped, backed off, split
            lost = [
                shard
                for shard_id, shard in worker.inflight.items()
                if shard_id in self._inflight
            ]
            worker.inflight.clear()
            for shard in reversed(lost):
                del self._inflight[shard.shard_id]
                shard.worker = None
                self._requeue_crashed_locked(shard, exitcode, now, completions)
            worker.process.join()  # reap
            self.stats.worker_restarts += 1
            self._workers[i] = self._spawn_worker()

    def _requeue_crashed_locked(
        self, shard: _Shard, exitcode, now: float, completions
    ) -> None:
        """Triage one crash-lost shard: expired requests fail with
        :class:`DeadlineExceeded`, requests out of retries fail with
        :class:`PoisonInput` (and are quarantined), the rest are
        re-queued -- one singleton shard each when the shard held
        several requests, so the actual poison structure cannot take
        its shard-mates down with it again."""
        survivors: list[_Request] = []
        for request in shard.requests:
            request.crashes += 1
            request.history.append(
                f"attempt {request.crashes}: worker died (exit code "
                f"{exitcode}) while solving a shard of "
                f"{len(shard.requests)} request(s)"
            )
            if request.deadline is not None and now >= request.deadline:
                self.stats.deadline_expired += 1
                self.stats.failed += 1
                completions.append(
                    (
                        request.future,
                        None,
                        DeadlineExceeded(
                            "request deadline expired "
                            f"{now - request.deadline:.3f}s ago "
                            f"(its worker died {request.crashes} time(s))"
                        ),
                    )
                )
                continue
            if request.crashes >= self.max_retries:
                completions.append(
                    (request.future, None, self._poison_locked(request, shard.key))
                )
                continue
            survivors.append(request)
        if not survivors:
            return
        self.stats.retries += len(survivors)
        if len(survivors) == 1:
            pieces = [shard]
            shard.requests = survivors
        else:
            pieces = []
            for request in survivors:
                piece = _Shard(next(self._shard_seq), shard.key, [request])
                piece.dispatched = True  # futures are already running
                pieces.append(piece)
        for piece in reversed(pieces):
            crashes = piece.requests[0].crashes
            piece.worker = None
            piece.not_before = now + self.retry_backoff * (2 ** (crashes - 1))
            piece.resubmitted_at = now
            self._shards.appendleft(piece)
            self.stats.shards_resubmitted += 1

    def _quarantine_rejection_locked(
        self, request: _Request, key: str, exc: BaseException
    ) -> None:
        """Quarantine an admission-rejected fingerprint so repeat
        submissions fail fast with the same typed rejection instead of
        re-running verification (and possibly re-decomposition) on a
        worker every time."""
        fingerprint = request.fingerprint
        if fingerprint not in self._quarantine:
            self._quarantine_locked(
                QuarantineRecord(
                    fingerprint=fingerprint,
                    program_key=key,
                    crashes=request.crashes,
                    history=tuple(request.history),
                    reason="admission",
                    error=exc,
                )
            )

    def _quarantine_locked(self, record: QuarantineRecord) -> None:
        """Insert a record, evicting the least recently submitted ones
        past :data:`QUARANTINE_CAPACITY`."""
        quarantine = self._quarantine
        quarantine[record.fingerprint] = record
        while len(quarantine) > QUARANTINE_CAPACITY:
            quarantine.popitem(last=False)
            self.stats.quarantine_evictions += 1
        self.stats.quarantine_size = len(quarantine)

    def _poison_locked(self, request: _Request, key: str) -> PoisonInput:
        fingerprint = request.fingerprint
        history = tuple(request.history)
        if fingerprint not in self._quarantine:
            self._quarantine_locked(
                QuarantineRecord(
                    fingerprint=fingerprint,
                    program_key=key,
                    crashes=request.crashes,
                    history=history,
                )
            )
            self.stats.poisoned += 1
        self.stats.failed += 1
        return PoisonInput(
            f"structure {fingerprint} crashed its worker "
            f"{request.crashes} time(s) and is now quarantined "
            f"(program {key})",
            fingerprint=fingerprint,
            program_key=key,
            crashes=request.crashes,
            history=history,
        )

    # -- workers -------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        tasks = self._ctx.Queue()
        # one private result pipe per worker: no cross-process lock to
        # leak when a worker dies mid-send (see _Worker's docstring)
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_service_worker_main,
            args=(
                tasks,
                writer,
                str(self._faults) if self._faults else None,
                self.budget,
                self.fallback_backend,
            ),
            name=f"solver-service-worker-{next(self._worker_seq)}",
            daemon=True,
        )
        process.start()
        # drop the parent's copy of the write end so the reader sees
        # EOF as soon as the worker (its only writer) exits
        writer.close()
        return _Worker(process, tasks, reader)
