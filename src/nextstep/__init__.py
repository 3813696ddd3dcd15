"""Online next-step prediction for software process enactment.

Feed the engine the steps a team actually performs, together with any
known context (which component, which working style, ...), and it
suggests the most plausible next step before each one happens.  Rules
over recent step history are learned, reinforced, decayed, and grown
on the fly; context occurrence counters let the engine tell apart
situations where bare step history is ambiguous.
"""

from .engine import (
    ContextEvidence,
    Engine,
    LearnReport,
    PredictionResult,
    PredictorConfig,
    context_fit,
    relevance_mean,
)
from .errors import (
    NextStepError,
    SnapshotFormatError,
    TraceFormatError,
    UnknownIdError,
    WindowRangeError,
)
from .evaluation import (
    MetricsRow,
    compare_engines,
    dump_trace,
    metrics_to_csv,
    parse_trace,
    read_trace,
    render_comparison_svg,
    run_trace,
    write_trace,
)
from .lookupdb import (
    ContextSlot,
    Entry,
    LookupDB,
    condition_matches,
    dump_snapshot,
    parse_snapshot,
    read_snapshot,
    record_contexts,
    update_probability,
    write_snapshot,
)
from .scenarios import block_steps, generate_trace
from .window import Observation, ObservationWindow

__version__ = "0.1.0"

__all__ = [
    "ContextEvidence",
    "ContextSlot",
    "Engine",
    "Entry",
    "LearnReport",
    "LookupDB",
    "MetricsRow",
    "NextStepError",
    "Observation",
    "ObservationWindow",
    "PredictionResult",
    "PredictorConfig",
    "SnapshotFormatError",
    "TraceFormatError",
    "UnknownIdError",
    "WindowRangeError",
    "block_steps",
    "compare_engines",
    "condition_matches",
    "context_fit",
    "dump_snapshot",
    "dump_trace",
    "generate_trace",
    "metrics_to_csv",
    "parse_snapshot",
    "parse_trace",
    "read_snapshot",
    "read_trace",
    "record_contexts",
    "relevance_mean",
    "render_comparison_svg",
    "run_trace",
    "update_probability",
    "write_snapshot",
    "write_trace",
]
