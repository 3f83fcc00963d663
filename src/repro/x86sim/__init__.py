"""repro.x86sim — functional thread-per-kernel simulator (x86sim analog).

AMD's x86sim runs each AIE kernel on its own OS thread; this package
reproduces that execution model for cgsim graphs so the wall-clock
comparison of Table 2 (cooperative single-thread cgsim vs preemptive
thread-per-kernel x86sim) can be reproduced on identical kernel code.
"""

from .channels import ThreadedBroadcastQueue, ThreadedLatchQueue
from .runner import (
    X86Plan,
    execute_plan,
    prepare_threads,
    run_threaded,
)

__all__ = [
    "run_threaded",
    "prepare_threads",
    "execute_plan",
    "X86Plan",
    "ThreadedBroadcastQueue",
    "ThreadedLatchQueue",
]
