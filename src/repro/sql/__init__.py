"""The TweeQL language front end: lexer, AST, and parser.

The dialect covers everything the paper's example queries use and the
constructs the prose describes:

- ``SELECT`` lists with scalar and aggregate function calls and aliases,
- ``FROM twitter`` (or any registered source),
- ``WHERE`` with boolean/comparison/arithmetic operators, the tweet-specific
  ``contains`` (case-insensitive substring) and ``matches`` (regular
  expression) operators, and geographic ``location in [bounding box …]``,
- ``GROUP BY`` on expressions or select aliases,
- ``WINDOW n unit [EVERY n unit]`` tumbling/sliding windows, and
  ``WINDOW CONFIDENCE h [MAX n unit]`` confidence-triggered AVG emission,
- ``HAVING``, ``LIMIT``, and ``INTO table`` for logging results.
"""

from repro.sql.ast import (
    BBox,
    BinaryOp,
    FieldRef,
    FuncCall,
    InList,
    Literal,
    SelectItem,
    SelectStatement,
    Star,
    UnaryOp,
    WindowSpec,
)
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import parse

__all__ = [
    "BBox",
    "BinaryOp",
    "FieldRef",
    "FuncCall",
    "InList",
    "Literal",
    "SelectItem",
    "SelectStatement",
    "Star",
    "UnaryOp",
    "WindowSpec",
    "Token",
    "TokenType",
    "tokenize",
    "parse",
]
