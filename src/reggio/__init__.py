"""Reggio: a region-capability language tool suite.

A type checker, tandem interpreter (command machine driving a region
machine by effects), runtime invariant oracle, and typed-program fuzzer
for a small language with six reference capabilities and LIFO region
stacks.
"""
from .model import Cap, CapType, CellHead, ClassName, UnionType, vpa
from .syntax import desugar_program, parse_expr, parse_program, parse_type
from .typecheck import TypeCheckError, check_program
from .command import TandemRunner, Verdict

__all__ = [
    "Cap", "CapType", "CellHead", "ClassName", "UnionType", "vpa",
    "desugar_program", "parse_expr", "parse_program", "parse_type",
    "TypeCheckError", "check_program",
    "TandemRunner", "Verdict",
]

__version__ = "0.1.0"
