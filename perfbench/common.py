"""Shared pieces of the workloads: timed operations, jobs and checks.

A workload is an endless, seeded sequence of jobs, grouped into rounds that
all have the same mix of operations.  A job builds its inputs (outside the
timed region) and lists its operations; each operation is one call into the
library (`fn`), checked afterwards by `check`, which raises on a wrong
answer.  `corrupt` turns a right answer into a wrong one; the benchmark's
own tests use it to show that the checks catch wrong answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


@dataclass
class Op:
    kind: str                              # operation name, e.g. "cli.pure-present"
    label: str                             # input family, e.g. "D4"
    fn: Callable[[], Any]                  # the timed call
    check: Callable[[Any], None]           # raises CheckFailed on a wrong answer
    corrupt: Callable[[Any], Any]          # a wrong answer derived from a right one


@dataclass
class Job:
    ops: List[Op]
    round: int
    # Coxeter systems built for this job; their braid-move class caches are
    # read after the job (see `class_words`)
    systems: list

    def class_words(self) -> int:
        """Braid-move class cache entries held by the job's systems, 0 when
        the systems keep no such cache."""
        return sum(len(getattr(s, "_class_cache", ()) or ()) for s in self.systems)


def job_rng(seed: int, job: int) -> random.Random:
    return random.Random(seed * 1_000_003 + job)

