"""Surface syntax: source locations, tokens, lexer, AST, and parser."""

from repro.core.syntax import ast
from repro.core.syntax.source import Span
from repro.lazy import exports

__all__ = ["Span", "ast", "parse_program", "tokenize"]
# the lexer and parser load on first use: a compile-cache entry pickles an
# AST, and unpickling one must not import them
__getattr__ = exports(__name__, {"parse_program": "repro.core.syntax.parser",
                                 "tokenize": "repro.core.syntax.lexer"})
