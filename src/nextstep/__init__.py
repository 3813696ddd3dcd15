"""Online next-step prediction for software process enactment.

Feed the engine the steps a team actually performs, together with any
known context (which component, which working style, ...), and it
suggests the most plausible next step before each one happens.  Rules
over recent step history are learned, reinforced, decayed, and grown
on the fly; context occurrence counters let the engine tell apart
situations where bare step history is ambiguous.

The names below are the library API; everything else lives in its own
module (``nextstep.engine``, ``nextstep.lookupdb``, ...).
"""

from .engine import Engine, PredictorConfig
from .errors import NextStepError
from .evaluation import (
    compare_engines,
    read_trace,
    render_comparison_svg,
    run_trace,
    write_trace,
)
from .lookupdb import read_snapshot, write_snapshot
from .window import Observation

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "NextStepError",
    "Observation",
    "PredictorConfig",
    "compare_engines",
    "read_snapshot",
    "read_trace",
    "render_comparison_svg",
    "run_trace",
    "write_snapshot",
    "write_trace",
]
