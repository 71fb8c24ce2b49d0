"""repro.runtime -- resumable run lifecycle.

Full-state checkpointing (:mod:`~repro.runtime.checkpoint`), graceful
shutdown (:mod:`~repro.runtime.signals`), and the checkpointing run
loops every experiment driver trains through
(:mod:`~repro.runtime.loop`).  See docs/CHECKPOINTS.md.  The BLAS
thread budget is scoped through :mod:`~repro.runtime.threads`.
"""

from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointReadError,
    checkpoint_info,
    latest_checkpoint,
    read_meta,
)
from repro.runtime.loop import (
    CHECKPOINT_DIR_NAME,
    RESULTS_NAME,
    RunInterrupted,
    RunLoop,
    RuntimeContext,
    memoized,
)
from repro.runtime.signals import INTERRUPT_EXIT_CODE, ShutdownGuard

__all__ = [
    "CHECKPOINT_DIR_NAME",
    "Checkpoint",
    "CheckpointReadError",
    "INTERRUPT_EXIT_CODE",
    "RESULTS_NAME",
    "RunInterrupted",
    "RunLoop",
    "RuntimeContext",
    "ShutdownGuard",
    "checkpoint_info",
    "latest_checkpoint",
    "memoized",
    "read_meta",
]
