"""What a run can be asked for: the backend and scheduler names and the
default strand-block size, each defined once.

This module imports nothing, so a command line declares its run flags
(:func:`repro.inputs.add_run_arguments`) — and prints ``--help`` —
without loading NumPy or the runtime.
"""

#: valid values for ``Program.run(backend=...)`` / ``--backend``
BACKEND_NAMES = ("numpy", "c")

#: every value accepted by ``Program.run(scheduler=...)`` / ``--scheduler``
#: (the run plan resolves ``"auto"`` to one of the other three)
SCHEDULER_CHOICES = ("seq", "thread", "process", "auto")

#: the paper's strand-block size ("currently 4096 strands per block", §5.5)
DEFAULT_BLOCK_SIZE = 4096


def default_scheduler(workers: int) -> str:
    """The scheduler of a run that names none: sequential on one worker,
    threads on more."""
    return "seq" if workers == 1 else "thread"
