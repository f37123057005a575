"""Parser for the session input language.

A session is a sequence of ring declarations, ideal declarations, and
commands, each terminated by a semicolon.  The grammar is whitespace
insensitive and supports ``#`` line comments:

    ring A = [x, y];
    ideal I in A = (x^2, x*y);
    vnum I;
    verify-theorem kind=ordinary k=2 I J;

Command arguments are named key=value pairs (kind, k, cap) plus
positional ideal names; ``colon`` additionally accepts a monomial.  The
command table ``_SIGNATURES`` gives each command's arguments and the
defaults of its optional ones.  All errors carry a line:column position.
"""

import re
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn

from .errors import ParseError
from .filtrations import FiltrationKind
from .ideals import MonomialIdeal, from_exps
from .rings import Monomial, Ring

KINDS = {kind.value: kind for kind in FiltrationKind}

# The lexical grammar, one alternative per token class.  \d is a Unicode
# decimal digit (str.isdecimal) and \w is str.isalnum() or "_"; a name
# must also start with a letter or "_", which _tokenize checks.
_SCANNER = re.compile(
    r"""
      (?P<newline> \n )
    | [^\S\n]+                  # other whitespace: no token
    | \#[^\n]*                  # comment: no token
    | (?P<nat> \d+ )
    | (?P<name> \w+ )
    | (?P<punct> [=\[\](),;^*-] )
    | (?P<other> . )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "name" | "nat" | one-character punctuation | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind is None:  # whitespace or a comment
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        tok = m.group()
        col = m.start() - line_start + 1
        if kind == "punct":
            kind = tok
        elif kind == "other" or (kind == "name" and not (tok[0].isalpha() or tok[0] == "_")):
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
        tokens.append(Token(kind, tok, line, col))
    # A comment on the last line runs to the end; input ends where it starts.
    end = text.find("#", line_start)
    tokens.append(Token("eof", "", line, (len(text) if end < 0 else end) - line_start + 1))
    return tokens


@dataclass(frozen=True, slots=True)
class Command:
    name: str
    ideals: tuple[str, ...]
    mono: Monomial | None
    kind: FiltrationKind | None
    k: int | None
    cap: int | None


@dataclass(slots=True)
class Session:
    rings: dict[str, Ring] = field(default_factory=dict)
    ideals: dict[str, MonomialIdeal] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)


# The command table: name -> (number of ideal arguments, required keys,
# optional keys with the value each takes when omitted).  A command takes
# exactly its required and optional keys.
_SIGNATURES: dict[str, tuple[int, tuple[str, ...], dict[str, int]]] = {
    "mingens": (1, (), {}),
    "colon": (1, (), {}),
    "ass": (1, (), {}),
    "min": (1, (), {}),
    "irrdec": (1, (), {}),
    "vnum": (1, (), {}),
    "power": (1, ("k",), {}),
    "symb": (1, ("kind", "k"), {}),
    "intclos": (1, (), {"k": 1}),
    "verify-expansion": (2, ("kind", "k"), {}),
    "verify-theorem": (2, ("kind", "k"), {}),
    "check-property": (1, ("kind", "k"), {"cap": 6}),
    "ntf": (1, (), {"k": 3}),
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.session = Session()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def fail(self, message: str, tok: Token) -> NoReturn:
        raise ParseError(message, tok.line, tok.col)

    def parse(self) -> Session:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                self.fail(f"expected a statement, found {tok.text!r}", tok)
            if tok.text == "ring":
                self.ring_decl()
            elif tok.text == "ideal":
                self.ideal_decl()
            else:
                self.command()
        return self.session

    def ring_decl(self):
        self.advance()  # ring
        name_tok = self.expect("name", "a ring name")
        if name_tok.text in self.session.rings:
            self.fail(f"ring {name_tok.text!r} already declared", name_tok)
        self.expect("=", "'='")
        self.expect("[", "'['")
        vars: list[str] = []
        while True:
            var_tok = self.expect("name", "a variable name")
            if var_tok.text in vars:
                self.fail(f"duplicate variable {var_tok.text!r}", var_tok)
            vars.append(var_tok.text)
            tok = self.advance()
            if tok.kind == "]":
                break
            if tok.kind != ",":
                self.fail("expected ',' or ']' in variable list", tok)
        self.expect(";", "';'")
        self.session.rings[name_tok.text] = Ring(name_tok.text, tuple(vars))

    def ideal_decl(self):
        self.advance()  # ideal
        name_tok = self.expect("name", "an ideal name")
        if name_tok.text in self.session.ideals:
            self.fail(f"ideal {name_tok.text!r} already declared", name_tok)
        in_tok = self.expect("name", "'in'")
        if in_tok.text != "in":
            self.fail("expected 'in' after the ideal name", in_tok)
        ring_tok = self.expect("name", "a ring name")
        ring = self.session.rings.get(ring_tok.text)
        if ring is None:
            self.fail(f"unknown ring {ring_tok.text!r}", ring_tok)
        self.expect("=", "'='")
        self.expect("(", "'('")
        exps: list[tuple[int, ...]] = []
        if self.peek().kind == ")":
            self.advance()
        else:
            while True:
                exps.append(self.mono_exp(ring))
                tok = self.advance()
                if tok.kind == ")":
                    break
                if tok.kind != ",":
                    self.fail("expected ',' or ')' in generator list", tok)
        self.expect(";", "';'")
        self.session.ideals[name_tok.text] = from_exps(ring, exps)

    def mono_exp(self, ring: Ring) -> tuple[int, ...]:
        """mono := "1" | term ("*" term)*  with term := NAME ("^" NAT)?"""
        vec = [0] * ring.nvars
        tok = self.peek()
        if tok.kind == "nat":
            if tok.text != "1":
                self.fail("the only numeric monomial is 1 (write () for the zero ideal)", tok)
            self.advance()
            return tuple(vec)
        while True:
            var_tok = self.expect("name", "a variable name")
            if var_tok.text not in ring.vars:
                self.fail(
                    f"variable {var_tok.text!r} is not in ring {ring.name!r}", var_tok
                )
            exp = 1
            if self.peek().kind == "^":
                self.advance()
                exp = self.nat(self.expect("nat", "an exponent"))
            vec[ring.index(var_tok.text)] += exp
            if self.peek().kind == "*":
                self.advance()
                continue
            return tuple(vec)

    def hyphenated(self, tok: Token, rest: str) -> Token:
        """The name tok joined with any following "-name" parts
        (verify-expansion, symb-ass); rest names a missing part."""
        text = tok.text
        while self.peek().kind == "-":
            self.advance()
            text += "-" + self.expect("name", rest).text
        return Token("name", text, tok.line, tok.col)

    def value_token(self) -> Token:
        """A key=value right-hand side; kind values may be hyphenated."""
        tok = self.advance()
        if tok.kind == "nat":
            return tok
        if tok.kind != "name":
            self.fail(f"expected a value, found {tok.text!r}", tok)
        return self.hyphenated(tok, "the rest of the value")

    def command(self):
        head = self.hyphenated(self.expect("name", "a command"), "the rest of the command name")
        if head.text not in _SIGNATURES:
            self.fail(f"unknown command {head.text!r}", head)
        arity, required, defaults = _SIGNATURES[head.text]
        named: dict[str, Token] = {}
        ideals: list[str] = []
        mono_val: Monomial | None = None
        while self.peek().kind != ";":
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("unterminated command; expected ';'", tok)
            if tok.kind == "name" and self.tokens[self.pos + 1].kind == "=":
                key_tok = self.advance()
                self.advance()  # '='
                if key_tok.text not in required and key_tok.text not in defaults:
                    self.fail(
                        f"command {head.text!r} takes no argument {key_tok.text!r}",
                        key_tok,
                    )
                if key_tok.text in named:
                    self.fail(f"duplicate argument {key_tok.text!r}", key_tok)
                named[key_tok.text] = self.value_token()
                continue
            # Positional argument: an ideal name, or (for colon) a monomial.
            if head.text == "colon" and len(ideals) == 1 and mono_val is None:
                base_ring = self.session.ideals[ideals[0]].ring
                lookahead = self.tokens[self.pos + 1]
                if (
                    tok.kind == "name"
                    and tok.text in self.session.ideals
                    and lookahead.kind not in ("^", "*")
                ):
                    # A bare declared-ideal name means the ideal colon;
                    # anything else is a monomial in the first ideal's ring.
                    self.advance()
                    ideals.append(tok.text)
                else:
                    mono_val = Monomial(base_ring, self.mono_exp(base_ring))
                continue
            if tok.kind != "name" or len(ideals) >= arity:
                self.fail(
                    f"unexpected argument {tok.text!r} for command {head.text!r}", tok
                )
            self.advance()
            if tok.text not in self.session.ideals:
                self.fail(f"unknown ideal {tok.text!r}", tok)
            ideals.append(tok.text)
        self.advance()  # ';'
        if head.text == "colon":
            if not (len(ideals) == 2 or (len(ideals) == 1 and mono_val is not None)):
                self.fail(
                    "colon needs an ideal and a monomial (or a second ideal)", head
                )
        elif len(ideals) != arity:
            self.fail(
                f"command {head.text!r} needs {arity} ideal argument(s), got {len(ideals)}",
                head,
            )
        missing = sorted(key for key in required if key not in named)
        if missing:
            self.fail(
                f"command {head.text!r} is missing argument(s): {', '.join(missing)}",
                head,
            )
        kind = None
        if "kind" in named:
            kind_tok = named["kind"]
            kind = KINDS.get(kind_tok.text)
            if kind is None:
                self.fail(
                    f"unknown kind {kind_tok.text!r} (expected one of: "
                    f"{', '.join(sorted(KINDS))})",
                    kind_tok,
                )
            if head.text == "symb" and kind not in (
                FiltrationKind.SYMBOLIC_ASS,
                FiltrationKind.SYMBOLIC_MIN,
            ):
                self.fail("symb takes kind=symb-ass or kind=symb-min", kind_tok)
        k = self.nat_arg(named, "k", defaults)
        cap = self.nat_arg(named, "cap", defaults)
        self.session.commands.append(
            Command(head.text, tuple(ideals), mono_val, kind, k, cap)
        )

    def nat_arg(
        self, named: dict[str, Token], key: str, defaults: dict[str, int]
    ) -> int | None:
        """The value given for key, else its default (None if it has none)."""
        tok = named.get(key)
        if tok is None:
            return defaults.get(key)
        if tok.kind != "nat":
            self.fail(f"argument {key} must be a natural number", tok)
        return self.nat(tok)

    def nat(self, tok: Token) -> int:
        """The value of a nat token.  Its text is decimal digits, so int()
        fails only past the interpreter's limit on digits in a conversion."""
        try:
            return int(tok.text)
        except ValueError:
            self.fail(f"number too long ({len(tok.text)} digits)", tok)


def parse_session(text: str) -> Session:
    return _Parser(text).parse()
