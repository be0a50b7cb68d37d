"""The execution flags every script shares, and the executor they imply.

``scripts/run_experiments.py``, ``scripts/sweep.py`` and
``scripts/train_assets.py`` all run their simulations through one
:class:`~repro.exec.executors.Executor` chosen by the same flags:
``--jobs``, ``--store`` / ``--resume``, the :class:`RetryPolicy` group
(``--max-retries``, ``--task-timeout``, ``--on-failure``),
``--workers`` and ``--profile``.  :func:`add_execution_arguments`
installs them, :func:`executor_from_args` turns the parsed namespace
into the executor (exiting with status 2 and a one-line message on a
bad value, as ``argparse`` does for a bad flag), and
:func:`store_summary` is the epilogue line of a store-backed run.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Optional

from ..profiling import add_profile_argument
from .batch import executor_for
from .executors import Executor
from .remote import parse_workers
from .scheduler import RetryPolicy
from .store import StoreExecutor, StoreSchemaError

__all__ = ["add_execution_arguments", "executor_from_args",
           "store_summary"]


def add_execution_arguments(parser: argparse.ArgumentParser,
                            default_jobs: int = 1) -> None:
    """Install the shared execution flags on ``parser``."""
    parser.add_argument(
        "-j", "--jobs", type=int, default=default_jobs,
        help="worker processes for the simulation batches (1 = serial)")
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="disk-backed result store: serve cached simulations from "
             "PATH, persist fresh ones (makes killed runs resumable)")
    parser.add_argument(
        "--resume", action="store_true",
        help="require --store to exist already (guards against a "
             "typo'd path silently recomputing a finished run)")
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per failing task before giving up (default 2)")
    group.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="flat per-task wall-clock budget; default derives one "
             "from each task's simulated-event cost")
    group.add_argument(
        "--on-failure", choices=("raise", "quarantine"),
        default="raise",
        help="raise: abort the run on the first exhausted task "
             "(default).  quarantine: record the failure, finish "
             "everything else, then exit non-zero naming the "
             "quarantined fingerprints")
    parser.add_argument(
        "--workers", default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="dispatch simulation batches to these repro worker "
             "daemons (scripts/worker.py) instead of local processes; "
             "list an address twice for two parallel lanes.  Zero "
             "reachable workers degrades to the local supervised pool "
             "with a warning")
    add_profile_argument(parser)
    # executor_from_args sees only the namespace; this is how it
    # reports a flag combination argparse cannot check by itself.
    parser.set_defaults(usage_error=parser.error)


def _exit_bad_value(flag: str, error: Exception) -> NoReturn:
    print(f"{flag}: {error}", file=sys.stderr)
    raise SystemExit(2)


def executor_from_args(args: argparse.Namespace) -> Executor:
    """The executor the parsed execution flags ask for.

    The caller owns it (use it as a context manager).  A bad flag value
    ends the process with status 2 and one line on stderr.
    """
    if args.resume and not args.store:
        args.usage_error("--resume requires --store PATH")
    try:
        workers = parse_workers(args.workers) if args.workers else None
    except ValueError as error:
        _exit_bad_value("--workers", error)
    policy = RetryPolicy(max_retries=args.max_retries,
                         task_timeout_s=args.task_timeout,
                         on_failure=args.on_failure)
    try:
        return executor_for(args.jobs, store=args.store,
                            resume=args.resume, policy=policy,
                            workers=workers)
    except (FileNotFoundError, StoreSchemaError) as error:
        _exit_bad_value("--store", error)


def store_summary(executor: Executor) -> Optional[str]:
    """``store: N hit(s), M miss(es) ... -> PATH`` for a store-backed
    executor, else ``None``.  For stdout only, never a report: hit
    counts differ between a fresh and a resumed run, the results must
    not."""
    if not isinstance(executor, StoreExecutor):
        return None
    quarantined = (f", {executor.quarantined} quarantined"
                   if executor.quarantined else "")
    return (f"store: {executor.hits} hit(s), {executor.misses} "
            f"miss(es){quarantined} -> {executor.store.path}")
