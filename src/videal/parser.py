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

Tokens carry no position.  The scanner is one regular expression whose
findall skips whitespace, so ``_tokenize`` is one comprehension over its
matches: a match is a token, a comment (dropped), or, at a character no
token starts with, the rest of the text, which then ends the scan.  A
position is computed only when an error is raised, by scanning the text
again up to the failing token.  Only a line feed breaks lines; a
carriage return, form feed, NEL or Unicode line separator is whitespace
one column wide.
"""

import re
from dataclasses import dataclass, field
from typing import NoReturn

from .errors import ParseError
from .filtrations import FiltrationKind
from .ideals import MonomialIdeal, from_exps
from .rings import Monomial, Ring

KINDS = {kind.value: kind for kind in FiltrationKind}

# The lexical grammar, one alternative per token class.  No alternative
# matches whitespace, so findall skips it.  \d is a Unicode decimal digit
# (str.isdecimal) and \w is str.isalnum() or "_".  The last alternative
# takes a character outside the grammar with the rest of the text, so it
# is the last match; its token, like a \w+ that starts with a non-decimal
# digit ("\u00b2x"), is a "name" that starts with neither a letter nor "_".
_SCANNER = re.compile(
    r"""
      [=\[\](),;^*-]            # punctuation: its own kind
    | \d+                       # nat
    | \w+                       # name
    | \#[^\n]*                  # comment: no token
    | [^\s\#][\s\S]*            # a lexical error, and the rest of the text
    """,
    re.VERBOSE,
)
_PUNCTUATION = frozenset("=[](),;^*-")


def _tokenize(text: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of text, ending with ("eof", ""); kind is
    "name", "nat" or the punctuation character itself.  A token is known
    by its index; _position finds where it starts."""
    tokens = [
        (word if word in _PUNCTUATION else "nat" if word.isdecimal() else "name", word)
        for word in _SCANNER.findall(text)
        if word[0] != "#"
    ]
    for index, (kind, word) in enumerate(tokens):
        if kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {word[0]!r}", *_position(text, index))
    tokens.append(("eof", ""))
    return tokens


def _position(text: str, index: int) -> tuple[int, int]:
    """The (line, col) where token index of text starts, by scanning the
    text again.  Past the last token is the end of input: the end of the
    last line, or where a comment on it starts."""
    starts = [m.start() for m in _SCANNER.finditer(text) if text[m.start()] != "#"]
    if index < len(starts):
        start = starts[index]
    else:
        start = text.find("#", text.rfind("\n") + 1)
        if start < 0:
            start = len(text)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


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
    """Recursive descent over the token list.  self.pos is the index of
    the next token; a token is named by its index, and fail() turns one
    into a line:column position."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.rings: dict[str, Ring] = {}
        self.session = Session()

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self) -> int:
        """Consumes the next token; returns its index."""
        self.pos += 1
        return self.pos - 1

    def expect(self, kind: str, what: str) -> str:
        """Consumes the next token, which must be of this kind; returns its text."""
        found, text = self.tokens[self.pos]
        if found != kind:
            self.fail(f"expected {what}, found {text or 'end of input'!r}", self.pos)
        self.pos += 1
        return text

    def fail(self, message: str, at: int) -> NoReturn:
        raise ParseError(message, *_position(self.text, at))

    def parse(self) -> Session:
        while self.peek() != "eof":
            kind, text = self.tokens[self.pos]
            if kind != "name":
                self.fail(f"expected a statement, found {text!r}", self.pos)
            if text == "ring":
                self.ring_decl()
            elif text == "ideal":
                self.ideal_decl()
            else:
                self.command()
        return self.session

    def ring_decl(self):
        self.advance()  # ring
        name = self.expect("name", "a ring name")
        if name in self.rings:
            self.fail(f"ring {name!r} already declared", self.pos - 1)
        self.expect("=", "'='")
        self.expect("[", "'['")
        vars: list[str] = []
        while True:
            var = self.expect("name", "a variable name")
            if var in vars:
                self.fail(f"duplicate variable {var!r}", self.pos - 1)
            vars.append(var)
            at = self.advance()
            if self.tokens[at][0] == "]":
                break
            if self.tokens[at][0] != ",":
                self.fail("expected ',' or ']' in variable list", at)
        self.expect(";", "';'")
        self.rings[name] = Ring(name, tuple(vars))

    def ideal_decl(self):
        self.advance()  # ideal
        name = self.expect("name", "an ideal name")
        if name in self.session.ideals:
            self.fail(f"ideal {name!r} already declared", self.pos - 1)
        if self.expect("name", "'in'") != "in":
            self.fail("expected 'in' after the ideal name", self.pos - 1)
        ring_name = self.expect("name", "a ring name")
        ring = self.rings.get(ring_name)
        if ring is None:
            self.fail(f"unknown ring {ring_name!r}", self.pos - 1)
        self.expect("=", "'='")
        self.expect("(", "'('")
        exps: list[tuple[int, ...]] = []
        if self.peek() == ")":
            self.advance()
        else:
            while True:
                exps.append(self.mono_exp(ring))
                at = self.advance()
                if self.tokens[at][0] == ")":
                    break
                if self.tokens[at][0] != ",":
                    self.fail("expected ',' or ')' in generator list", at)
        self.expect(";", "';'")
        self.session.ideals[name] = from_exps(ring, exps)

    def mono_exp(self, ring: Ring) -> tuple[int, ...]:
        """mono := "1" | term ("*" term)*  with term := NAME ("^" NAT)?"""
        vec = [0] * ring.nvars
        kind, text = self.tokens[self.pos]
        if kind == "nat":
            if text != "1":
                self.fail("the only numeric monomial is 1 (write () for the zero ideal)", self.pos)
            self.advance()
            return tuple(vec)
        while True:
            var = self.expect("name", "a variable name")
            if var not in ring.vars:
                self.fail(f"variable {var!r} is not in ring {ring.name!r}", self.pos - 1)
            exp = 1
            if self.peek() == "^":
                self.advance()
                self.expect("nat", "an exponent")
                exp = self.nat(self.pos - 1)
            vec[ring.index(var)] += exp
            if self.peek() == "*":
                self.advance()
                continue
            return tuple(vec)

    def hyphenated(self, text: str, rest: str) -> str:
        """text, a name just read, joined with any following "-name"
        parts (verify-expansion, symb-ass); rest names a missing part."""
        while self.peek() == "-":
            self.advance()
            text += "-" + self.expect("name", rest)
        return text

    def value(self) -> tuple[int, str]:
        """A key=value right-hand side as (index, text): a nat, or a name
        that may be hyphenated (kind values)."""
        at = self.advance()
        kind, text = self.tokens[at]
        if kind == "nat":
            return at, text
        if kind != "name":
            self.fail(f"expected a value, found {text!r}", at)
        return at, self.hyphenated(text, "the rest of the value")

    def command(self):
        head = self.pos
        name = self.hyphenated(self.expect("name", "a command"), "the rest of the command name")
        if name not in _SIGNATURES:
            self.fail(f"unknown command {name!r}", head)
        arity, required, defaults = _SIGNATURES[name]
        named: dict[str, tuple[int, str]] = {}
        ideals: list[str] = []
        mono_val: Monomial | None = None
        while self.peek() != ";":
            kind, text = self.tokens[self.pos]
            if kind == "eof":
                self.fail("unterminated command; expected ';'", self.pos)
            if kind == "name" and self.tokens[self.pos + 1][0] == "=":
                key = self.pos
                self.pos += 2  # the key and '='
                if text not in required and text not in defaults:
                    self.fail(f"command {name!r} takes no argument {text!r}", key)
                if text in named:
                    self.fail(f"duplicate argument {text!r}", key)
                named[text] = self.value()
                continue
            # Positional argument: an ideal name, or (for colon) a monomial.
            if name == "colon" and len(ideals) == 1 and mono_val is None:
                base_ring = self.session.ideals[ideals[0]].ring
                if (
                    kind == "name"
                    and text in self.session.ideals
                    and self.tokens[self.pos + 1][0] not in ("^", "*")
                ):
                    # A bare declared-ideal name means the ideal colon;
                    # anything else is a monomial in the first ideal's ring.
                    self.advance()
                    ideals.append(text)
                else:
                    mono_val = Monomial(base_ring, self.mono_exp(base_ring))
                continue
            if kind != "name" or len(ideals) >= arity:
                self.fail(f"unexpected argument {text!r} for command {name!r}", self.pos)
            at = self.advance()
            if text not in self.session.ideals:
                self.fail(f"unknown ideal {text!r}", at)
            ideals.append(text)
        self.advance()  # ';'
        if name == "colon":
            if not (len(ideals) == 2 or (len(ideals) == 1 and mono_val is not None)):
                self.fail("colon needs an ideal and a monomial (or a second ideal)", head)
        elif len(ideals) != arity:
            self.fail(
                f"command {name!r} needs {arity} ideal argument(s), got {len(ideals)}",
                head,
            )
        missing = sorted([key for key in required if key not in named])
        if missing:
            self.fail(
                f"command {name!r} is missing argument(s): {', '.join(missing)}",
                head,
            )
        filtration = None
        if "kind" in named:
            at, text = named["kind"]
            filtration = KINDS.get(text)
            if filtration is None:
                self.fail(
                    f"unknown kind {text!r} (expected one of: {', '.join(sorted(KINDS))})",
                    at,
                )
            if name == "symb" and filtration not in (
                FiltrationKind.SYMBOLIC_ASS,
                FiltrationKind.SYMBOLIC_MIN,
            ):
                self.fail("symb takes kind=symb-ass or kind=symb-min", at)
        k = self.nat_arg(named, "k", defaults)
        cap = self.nat_arg(named, "cap", defaults)
        self.session.commands.append(Command(name, tuple(ideals), mono_val, filtration, k, cap))

    def nat_arg(
        self, named: dict[str, tuple[int, str]], key: str, defaults: dict[str, int]
    ) -> int | None:
        """The value given for key, else its default (None if it has none)."""
        if key not in named:
            return defaults.get(key)
        at = named[key][0]
        if self.tokens[at][0] != "nat":
            self.fail(f"argument {key} must be a natural number", at)
        return self.nat(at)

    def nat(self, at: int) -> int:
        """The value of nat token at.  Its text is decimal digits, so int()
        fails only past the interpreter's limit on digits in a conversion."""
        text = self.tokens[at][1]
        try:
            return int(text)
        except ValueError:
            self.fail(f"number too long ({len(text)} digits)", at)


def parse_session(text: str) -> Session:
    return _Parser(text).parse()
