"""repro.exec — the unified parallel execution layer.

Every simulation this package runs — Remy training evaluations, the
experiment sweeps, the CLI scripts — is one of thousands of independent
(config, trees, seed) runs.  This subpackage gives them a single
batch-execution layer:

* :class:`SimTask` / :class:`SimTaskResult` — declarative, picklable
  descriptions of one run and its output, with a stable fingerprint
  exposed as the universal :func:`cache_key`.
* :class:`Executor` and its implementations (:class:`SerialExecutor`,
  :class:`CachingExecutor` in memory, :class:`StoreExecutor` on disk,
  and the two parallel ones below).
* :class:`SupervisedExecutor` (local worker processes) and
  :class:`RemoteExecutor` / :class:`WorkerServer` (``scripts/worker.py``
  daemons over TCP, ``--workers host:port,...`` on the CLIs) — cost-
  packed chunks under one scheduler and one :class:`RetryPolicy`
  failure contract: leases, retry, bisection, quarantine, stealing.
* :class:`ResultStore` — the sharded, schema-versioned,
  corruption-tolerant on-disk result map behind :class:`StoreExecutor`;
  it makes crashed sweeps resumable and shares results across
  processes.
* :func:`run_batch` / :func:`executor_for` — the entry points callers
  actually use (both accept ``store=``).
* :func:`add_execution_arguments` / :func:`executor_from_args` — the
  same, for a script: the shared ``--jobs/--store/--resume/--workers``
  and fault-tolerance flags, and the executor they imply.

See ``docs/EXECUTION.md`` for the architecture, the determinism
contract (serial, pooled, and store-backed execution are
bitwise-identical), and the on-disk store format.
"""

from .batch import executor_for, run_batch
from .cli import (add_execution_arguments, executor_from_args,
                  store_summary)
from .executors import (CachingExecutor, Executor, ProcessPoolExecutor,
                        SerialExecutor, default_jobs, pack_chunks)
from .remote import (RemoteExecutor, RemoteStats, WorkerServer,
                     parse_workers, serve_worker)
from .store import (SCHEMA_VERSION, ResultStore, StoreExecutor,
                    StoreSchemaError, StoreStats, store_main)
from .scheduler import RetryPolicy, TaskFailedError
from .supervise import SupervisedExecutor, SuperviseStats
from .task import (BACKENDS, BackendRefusal, SimTask, SimTaskResult,
                   TaskFailure, cache_key, run_sim_task, run_task_group,
                   task_cost)

__all__ = [
    "SimTask", "SimTaskResult", "TaskFailure", "run_sim_task",
    "run_task_group", "cache_key", "BACKENDS", "BackendRefusal",
    "Executor", "SerialExecutor", "ProcessPoolExecutor",
    "CachingExecutor", "StoreExecutor", "SupervisedExecutor",
    "RemoteExecutor", "RemoteStats", "WorkerServer", "serve_worker",
    "parse_workers",
    "default_jobs", "pack_chunks", "task_cost",
    "RetryPolicy", "SuperviseStats", "TaskFailedError",
    "ResultStore", "StoreStats", "StoreSchemaError", "SCHEMA_VERSION",
    "store_main",
    "run_batch", "executor_for",
    "add_execution_arguments", "executor_from_args", "store_summary",
]
