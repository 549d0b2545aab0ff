"""The machine record each timing script prints beside its numbers."""

import os
import platform

import numpy as np


def machine() -> dict:
    """Python and numpy versions, the platform, and the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "usable_cpus": cpus,
    }
