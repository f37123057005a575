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

A token is its text, with no kind and no position.  The scanner is one
regular expression whose findall skips whitespace, so ``_tokenize`` is
one comprehension over its matches: a match is a token, a comment
(dropped), or, at a character no token starts with, the rest of the
text, which then ends the scan; "" ends the tokens.  The grammar derives
a kind only where it reads one: punctuation is its own text, a nat is
``str.isdecimal``, and any other non-empty token is a name.  A position
is computed only when an error is raised, by scanning the text again up
to the failing token.  Only a line feed breaks lines; a carriage return,
form feed, NEL or Unicode line separator is whitespace one column wide.
"""

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NoReturn

from .errors import ParseError
from .filtrations import FiltrationKind
from .ideals import MonomialIdeal, from_exps
from .rings import Monomial, Ring

KINDS = {kind.value: kind for kind in FiltrationKind}

# The lexical grammar, one alternative per token class.  No alternative
# matches whitespace, so findall skips it.  \d is a Unicode decimal digit
# (str.isdecimal), \w is str.isalnum() or "_", and \d+ is tried first.
# The last alternative takes a character outside the grammar with the
# rest of the text, so it is the last match; it and a \w+ that starts
# with a non-decimal digit ("\u00b2x") are the lexical errors.
_SCANNER = re.compile(
    r"""
      [=\[\](),;^*-]            # punctuation
    | \d+                       # nat
    | \w+                       # name
    | \#[^\n]*                  # comment: no token
    | [^\s\#][\s\S]*            # a lexical error, and the rest of the text
    """,
    re.VERBOSE,
)
_PUNCTUATION = frozenset("=[](),;^*-")


def _tokenize(text: str) -> list[str]:
    """The tokens of text, ending with "", the end of input.  A token is
    known by its index; _position finds where it starts.  A lexical error
    raises at the first bad token, which is the first with its text."""
    tokens = [word for word in _SCANNER.findall(text) if word[0] != "#"]
    bad = [word for word in tokens
           if not (word in _PUNCTUATION or word[0].isalpha() or word.isdecimal() or word[0] == "_")]
    if bad:
        at = _position(text, tokens.index(bad[0]))
        raise ParseError(f"unexpected character {bad[0][0]!r}", *at)
    tokens.append("")
    return tokens


def _is_name(word: str) -> bool:
    """Whether a token of ``_tokenize`` is a name: not punctuation, a nat or ""."""
    return word not in _PUNCTUATION and not word.isdecimal() and word != ""


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

    def take(self, wanted: str | Callable[[str], bool], what: str) -> str:
        """Consumes the next token, which must be the punctuation wanted,
        or satisfy wanted if it is a predicate; returns it."""
        word = self.tokens[self.pos]
        if word == wanted or not isinstance(wanted, str) and wanted(word):
            self.pos += 1
            return word
        self.fail(f"expected {what}, found {word or 'end of input'!r}", self.pos)

    def fail(self, message: str, at: int) -> NoReturn:
        raise ParseError(message, *_position(self.text, at))

    def parse(self) -> Session:
        while word := self.tokens[self.pos]:
            if word == "ring":
                self.ring_decl()
            elif word == "ideal":
                self.ideal_decl()
            elif _is_name(word):
                self.command()
            else:
                self.fail(f"expected a statement, found {word!r}", self.pos)
        return self.session

    def listed(self, close: str, what: str) -> Iterator[None]:
        """Yields once per item, which the caller reads, of a list ended by
        the punctuation close, and consumes the "," or close after it."""
        while True:
            yield
            self.pos += 1
            if self.tokens[self.pos - 1] == close:
                return
            if self.tokens[self.pos - 1] != ",":
                self.fail(f"expected ',' or {close!r} in {what}", self.pos - 1)

    def ring_decl(self):
        self.pos += 1  # ring
        name = self.take(_is_name, "a ring name")
        if name in self.rings:
            self.fail(f"ring {name!r} already declared", self.pos - 1)
        self.take("=", "'='")
        self.take("[", "'['")
        vars: list[str] = []
        for _ in self.listed("]", "variable list"):
            var = self.take(_is_name, "a variable name")
            if var in vars:
                self.fail(f"duplicate variable {var!r}", self.pos - 1)
            vars.append(var)
        self.take(";", "';'")
        self.rings[name] = Ring(name, tuple(vars))

    def ideal_decl(self):
        self.pos += 1  # ideal
        name = self.take(_is_name, "an ideal name")
        if name in self.session.ideals:
            self.fail(f"ideal {name!r} already declared", self.pos - 1)
        if self.take(_is_name, "'in'") != "in":
            self.fail("expected 'in' after the ideal name", self.pos - 1)
        ring_name = self.take(_is_name, "a ring name")
        ring = self.rings.get(ring_name)
        if ring is None:
            self.fail(f"unknown ring {ring_name!r}", self.pos - 1)
        self.take("=", "'='")
        self.take("(", "'('")
        exps: list[tuple[int, ...]] = []
        if self.tokens[self.pos] == ")":
            self.pos += 1
        else:
            exps = [self.mono_exp(ring) for _ in self.listed(")", "generator list")]
        self.take(";", "';'")
        self.session.ideals[name] = from_exps(ring, exps)

    def mono_exp(self, ring: Ring) -> tuple[int, ...]:
        """mono := "1" | term ("*" term)*  with term := NAME ("^" NAT)?"""
        vec = [0] * ring.nvars
        if self.tokens[self.pos].isdecimal():
            if self.tokens[self.pos] != "1":
                self.fail("the only numeric monomial is 1 (write () for the zero ideal)", self.pos)
            self.pos += 1
            return tuple(vec)
        while True:
            var = self.take(_is_name, "a variable name")
            if var not in ring.vars:
                self.fail(f"variable {var!r} is not in ring {ring.name!r}", self.pos - 1)
            exp = 1
            if self.tokens[self.pos] == "^":
                self.pos += 1
                self.take(str.isdecimal, "an exponent")
                exp = self.nat(self.pos - 1)
            vec[ring.index(var)] += exp
            if self.tokens[self.pos] != "*":
                return tuple(vec)
            self.pos += 1

    def hyphenated(self, word: str, rest: str) -> str:
        """word, a name just read, joined with any following "-name"
        parts (verify-expansion, symb-ass); rest names a missing part."""
        while self.tokens[self.pos] == "-":
            self.pos += 1
            word += "-" + self.take(_is_name, rest)
        return word

    def command(self):
        head = self.pos
        self.pos += 1
        name = self.hyphenated(self.tokens[head], "the rest of the command name")
        if name not in _SIGNATURES:
            self.fail(f"unknown command {name!r}", head)
        arity, required, defaults = _SIGNATURES[name]
        # Each key=value argument as the index of its value and the value,
        # a nat or a name that may be hyphenated (kind values).
        named: dict[str, tuple[int, str]] = {}
        ideals: list[str] = []
        mono_val: Monomial | None = None
        while (word := self.tokens[self.pos]) != ";":
            if not word:
                self.fail("unterminated command; expected ';'", self.pos)
            if self.tokens[self.pos + 1] == "=" and _is_name(word):
                key, at = self.pos, self.pos + 2  # the key, and its value past '='
                if word not in required and word not in defaults:
                    self.fail(f"command {name!r} takes no argument {word!r}", key)
                if word in named:
                    self.fail(f"duplicate argument {word!r}", key)
                value = self.tokens[at]
                self.pos = at + 1
                if not value.isdecimal():
                    if not _is_name(value):
                        self.fail(f"expected a value, found {value or 'end of input'!r}", at)
                    value = self.hyphenated(value, "the rest of the value")
                named[word] = at, value
                continue
            # Positional argument: an ideal name, or (for colon) a monomial.
            if name == "colon" and len(ideals) == 1 and mono_val is None:
                base_ring = self.session.ideals[ideals[0]].ring
                if word in self.session.ideals and self.tokens[self.pos + 1] not in ("^", "*"):
                    # A bare declared-ideal name means the ideal colon;
                    # anything else is a monomial in the first ideal's ring.
                    self.pos += 1
                    ideals.append(word)
                else:
                    mono_val = Monomial(base_ring, self.mono_exp(base_ring))
                continue
            if not _is_name(word) or len(ideals) >= arity:
                self.fail(f"unexpected argument {word!r} for command {name!r}", self.pos)
            if word not in self.session.ideals:
                self.fail(f"unknown ideal {word!r}", self.pos)
            self.pos += 1
            ideals.append(word)
        self.pos += 1  # ';'
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
        at, value = named[key]
        if not value.isdecimal():
            self.fail(f"argument {key} must be a natural number", at)
        return self.nat(at)

    def nat(self, at: int) -> int:
        """The value of nat token at.  Its text is decimal digits, so int()
        fails only past the interpreter's limit on digits in a conversion."""
        word = self.tokens[at]
        try:
            return int(word)
        except ValueError:
            self.fail(f"number too long ({len(word)} digits)", at)


def parse_session(text: str) -> Session:
    return _Parser(text).parse()
