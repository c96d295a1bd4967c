"""The recursive-descent parser seqstack used before `logic._parse`, kept verbatim.

It is the oracle the current parser is held to: on any text both either
return equal trees or raise `DataError` with the same message, byte offset
included. `reference_parse` is its entry point, the old `parse_expression`.
"""

from seqstack.errors import DataError
from seqstack.logic import ATOMS, And, Atom, Expr, Not, Or


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        offset = 0
        for piece in text.split(" "):
            if piece:
                self.tokens.append((piece, offset))
            offset += len(piece) + 1
        self.pos = 0

    def _fail(self, message: str, offset: int | None = None) -> None:
        if offset is None:
            offset = self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.text)
        raise DataError(f"{message} at byte {offset}")

    def _take(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            self._fail("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, want: str) -> None:
        tok, off = self._take()
        if tok != want:
            self._fail(f"expected {want!r}, found {tok!r}", off)

    def expression(self) -> Expr:
        tok, off = self._take()
        if tok in ATOMS:
            return Atom(tok)
        if tok != "(":
            self._fail(f"expected atom or '(', found {tok!r}", off)
        nxt, _ = self.tokens[self.pos] if self.pos < len(self.tokens) else ("", len(self.text))
        if nxt == "not":
            self._take()
            child = self.expression()
            self._expect(")")
            return Not(child)
        left = self.expression()
        self._expect("(")
        op, op_off = self._take()
        if op not in ("or", "and"):
            self._fail(f"expected 'or' or 'and', found {op!r}", op_off)
        right = self.expression()
        self._expect(")")
        self._expect(")")
        return Or(left, right) if op == "or" else And(left, right)

    def parse(self) -> Expr:
        if not self.tokens:
            self._fail("empty expression", 0)
        root = self.expression()
        if self.pos != len(self.tokens):
            self._fail(f"trailing input {self.tokens[self.pos][0]!r}")
        return root


def reference_parse(text: str) -> Expr:
    return _Parser(text).parse()
