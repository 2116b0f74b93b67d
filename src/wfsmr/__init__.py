"""Well-founded semantics for safe normal logic programs, evaluated
bottom-up as MapReduce job pipelines on an embedded engine."""

from .fixpoint import (
    FixpointResult,
    SolveOptions,
    TruthValue,
    classify,
    partitions_agree,
    solve,
)
from .mapreduce import Engine, EngineConfig, JobSpec
from .planner import compile_program, compile_rule
from .program import (
    Atom,
    Fact,
    Program,
    Rule,
    check_safety,
    parse_facts,
    parse_program,
)
from .store import Database, DatabaseView

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Database",
    "DatabaseView",
    "Engine",
    "EngineConfig",
    "Fact",
    "FixpointResult",
    "JobSpec",
    "Program",
    "Rule",
    "SolveOptions",
    "TruthValue",
    "check_safety",
    "classify",
    "compile_program",
    "compile_rule",
    "parse_facts",
    "parse_program",
    "partitions_agree",
    "solve",
    "__version__",
]
