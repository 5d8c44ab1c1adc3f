"""Minimal s-expression reader with source positions.

Atoms are bare symbols (no string or quote syntax); semicolons start
comments that run to end of line.  Every node carries the line and column it
started at so callers can report errors precisely.
"""

from __future__ import annotations

from .records import Record


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class SAtom(Record):
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int = 0, col: int = 0):
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return self.text


class SList(Record):
    __slots__ = ("items", "line", "col")

    def __init__(self, items: list, line: int = 0, col: int = 0):
        self.items = items
        self.line = line
        self.col = col

    def __repr__(self):
        return "(" + " ".join(map(repr, self.items)) + ")"

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


_DELIMS = set("(); \t\r\n")


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, line, col
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in _DELIMS:
                i += 1
                col += 1
            yield text[start:i], line, start_col
    yield None, line, col


def parse_sexprs(text: str) -> list[SAtom | SList]:
    """Parse a whole document into its top-level forms."""
    tokens = _tokenize(text)
    stack: list[SList] = []
    top: list[SAtom | SList] = []
    for tok, line, col in tokens:
        if tok is None:
            if stack:
                raise ParseError(stack[-1].line, stack[-1].col, "unclosed parenthesis")
            return top
        if tok == "(":
            node = SList([], line, col)
            (stack[-1].items if stack else top).append(node)
            stack.append(node)
        elif tok == ")":
            if not stack:
                raise ParseError(line, col, "unmatched closing parenthesis")
            stack.pop()
        else:
            (stack[-1].items if stack else top).append(SAtom(tok, line, col))
    raise AssertionError("tokenizer ended without sentinel")


def expect_list(node, what: str) -> SList:
    if not isinstance(node, SList):
        raise ParseError(node.line, node.col, f"expected {what}, found atom {node.text!r}")
    return node


def expect_atom(node, what: str) -> SAtom:
    if not isinstance(node, SAtom):
        raise ParseError(node.line, node.col, f"expected {what}, found a list")
    return node
