"""The SAC comprehension language: syntax, semantics, and rewrites.

Pipeline order: :func:`parse` → :func:`desugar` → :func:`normalize` →
(:class:`Interpreter` for reference evaluation, or the planner for
distributed execution).
"""

from .ast import (
    BinOp, BuilderApp, Call, Comprehension, Expr, Field, FreshNames,
    Generator, GroupByQual, Guard, IfExpr, Index, LetQual, Lit, Node,
    Pattern, Qualifier, RangeExpr, Reduce, TupleExpr, TuplePat, UnOp, Var,
    VarPat, WildPat, free_vars, pattern_to_expr, pattern_vars, to_source,
    walk,
)
from .desugar import desugar
from .errors import (
    SacError, SacNameError, SacPatternError, SacPlanError, SacSyntaxError,
    SacTypeError,
)
from .interpreter import BUILTINS, Interpreter, bind_pattern, index_value
from .lexer import Token, tokenize
from .monoids import MONOIDS, Monoid, is_monoid, monoid
from .normalize import normalize
from .parser import parse, parse_pattern

__all__ = [
    "BinOp", "BuilderApp", "BUILTINS", "Call", "Comprehension", "Expr",
    "Field", "FreshNames", "Generator", "GroupByQual", "Guard", "IfExpr",
    "Index", "Interpreter", "LetQual", "Lit", "MONOIDS", "Monoid", "Node",
    "Pattern", "Qualifier", "RangeExpr", "Reduce", "SacError",
    "SacNameError", "SacPatternError", "SacPlanError", "SacSyntaxError",
    "SacTypeError", "Token", "TupleExpr", "TuplePat", "UnOp", "Var",
    "VarPat", "WildPat", "bind_pattern", "desugar", "free_vars",
    "index_value", "is_monoid", "monoid", "normalize", "parse",
    "parse_pattern", "pattern_to_expr", "pattern_vars", "to_source",
    "tokenize", "walk",
]
