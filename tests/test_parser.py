import pathlib
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    branching_tokens,
    descent_parse_session,
    group_position,
    mutate_session,
    scan_chars,
)
from videal.errors import ParseError
from videal.filtrations import FiltrationKind
from videal.ideals import ideal
from videal.parser import _is_name, _position, _tokenize, parse_session
from videal.rings import make_ring, mono


def parse_one(text):
    return parse_session(text)


def kind(token):
    """A token's kind as the grammar derives it from its text: "eof" for
    the end of input, "nat", "name", or the punctuation itself."""
    if not token:
        return "eof"
    if token.isdecimal():
        return "nat"
    return "name" if _is_name(token) else token


def positioned(text):
    """_tokenize's tokens as (kind, text, line, col), the last one eof."""
    return [(kind(tok), tok, *_position(text, index))
            for index, tok in enumerate(_tokenize(text))]


def test_minimal_session():
    session = parse_one("ring A = [x,y]; ideal I in A = (x^2, x*y); vnum I;")
    assert list(session.ideals) == ["I"]
    assert session.ideals["I"].ring.name == "A"
    assert len(session.commands) == 1
    assert session.commands[0].name == "vnum"
    assert session.commands[0].ideals == ("I",)


def test_unknown_ring_reports_position():
    with pytest.raises(ParseError) as err:
        parse_one("ideal I in A = (x);")
    assert "unknown ring 'A'" in str(err.value)
    assert err.value.line == 1
    assert err.value.col == 12


def test_ideal_declaration_needs_in():
    with pytest.raises(ParseError) as err:
        parse_one("ring A = [x]; ideal I on A = (x);")
    assert "expected 'in' after the ideal name" in str(err.value)
    assert err.value.line == 1
    assert err.value.col == 23


def test_exponent_zero_is_one():
    session = parse_one("ring A = [x]; ideal I in A = (x^0);")
    assert session.ideals["I"].is_unit()


def test_empty_generator_list_is_zero_ideal():
    session = parse_one("ring A = [x]; ideal I in A = ();")
    assert session.ideals["I"].is_zero()


def test_repeated_variable_multiplies():
    session = parse_one("ring A = [x]; ideal I in A = (x*x);")
    ring = make_ring("A", ["x"])
    assert session.ideals["I"] == ideal(ring, [mono(ring, x=2)])


def test_comments_and_whitespace_insensitive():
    text = """
    # a comment
    ring   A=[x,
       y];   # trailing comment
    ideal I in A=(x ^ 2 , x*y);
    vnum I ;
    """
    session = parse_one(text)
    assert len(session.commands) == 1


def test_hyphenated_commands_and_kinds():
    text = (
        "ring A = [x]; ring B = [y]; ideal I in A = (x); ideal J in B = (y);"
        "verify-theorem kind=symb-min k=2 I J;"
    )
    cmd = parse_one(text).commands[0]
    assert cmd.name == "verify-theorem"
    assert cmd.kind is FiltrationKind.SYMBOLIC_MIN
    assert cmd.k == 2
    assert cmd.ideals == ("I", "J")


def test_colon_monomial_operand():
    session = parse_one("ring A = [x,y]; ideal I in A = (x^2); colon I x*y;")
    cmd = session.commands[0]
    assert cmd.ideals == ("I",)
    assert str(cmd.mono) == "x*y"


def test_colon_prefers_declared_ideal():
    text = "ring A = [x,y]; ideal I in A = (x^2); ideal J in A = (y); colon I J;"
    cmd = parse_one(text).commands[0]
    assert cmd.ideals == ("I", "J")
    assert cmd.mono is None


def test_colon_variable_falls_back_to_monomial():
    text = "ring A = [x,y]; ideal I in A = (x^2); colon I y;"
    cmd = parse_one(text).commands[0]
    assert cmd.ideals == ("I",)
    assert str(cmd.mono) == "y"


def test_colon_by_one():
    text = "ring A = [x]; ideal I in A = (x^2); colon I 1;"
    cmd = parse_one(text).commands[0]
    assert cmd.mono is not None and cmd.mono.is_one()


def test_symb_rejects_ordinary_kind():
    text = "ring A = [x]; ideal I in A = (x); symb kind=ordinary k=1 I;"
    with pytest.raises(ParseError) as err:
        parse_one(text)
    assert "symb-ass or kind=symb-min" in str(err.value)


def test_missing_required_argument():
    with pytest.raises(ParseError) as err:
        parse_one("ring A = [x]; ideal I in A = (x); power I;")
    assert "missing argument" in str(err.value)


def test_unknown_command():
    with pytest.raises(ParseError) as err:
        parse_one("ring A = [x]; ideal I in A = (x); frobnicate I;")
    assert "unknown command" in str(err.value)


def test_zero_monomial_token_rejected():
    with pytest.raises(ParseError) as err:
        parse_one("ring A = [x]; ideal I in A = (0);")
    assert "zero ideal" in str(err.value)


def test_parse_print_round_trip_on_ideals():
    text = (
        "ring A = [x, y, z];"
        "ideal I in A = (x^2*y, y*z^3, x*z);"
        "ideal J in A = (1);"
        "ideal K in A = ();"
    )
    session = parse_one(text)
    for name, original in session.ideals.items():
        printed = f"ring A = [x, y, z]; ideal T in A = {original};"
        if original.is_zero():
            assert str(original) == "()"
        reparsed = parse_one(printed).ideals["T"]
        assert reparsed == original


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_one("ring A = [x]; ring A = [y];")
    with pytest.raises(ParseError):
        parse_one("ring A = [x]; ideal I in A = (x); ideal I in A = (x);")
    with pytest.raises(ParseError):
        parse_one("ring A = [x, x];")


def test_position_tracking_across_lines():
    with pytest.raises(ParseError) as err:
        parse_one("ring A = [x];\nideal I in B = (x);")
    assert err.value.line == 2
    assert err.value.col == 12


def test_end_of_input_after_trailing_comment():
    # A comment produces no token; input ends at the column where it starts.
    assert positioned("vnum I; # done")[-1] == ("eof", "", 1, 9)
    assert positioned("# one\nvnum I;")[-1] == ("eof", "", 2, 8)


@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x1c", "\u0085", "\u2028", "\u2029"])
def test_only_line_feed_breaks_lines(sep):
    # These are whitespace, and str.splitlines would break a line at each;
    # the scanner counts them as one column.
    text = f"vnum{sep}I;{sep}\r\nvnum J;{sep}# x{sep}y"
    assert positioned(text) == [
        ("name", "vnum", 1, 1), ("name", "I", 1, 6), (";", ";", 1, 7),
        ("name", "vnum", 2, 1), ("name", "J", 2, 6), (";", ";", 2, 7),
        ("eof", "", 2, 9),
    ]
    with pytest.raises(ParseError) as err:
        parse_session(f"ring A = [x];{sep}{sep}\r\n{sep}ideal I in B = (x);")
    assert (err.value.line, err.value.col) == (2, 13)


def test_error_on_the_last_token_of_a_long_session():
    header = "ring A = [x, y]; ideal I in A = (x^2, x*y);\n"
    text = header + "vnum I;\n" * 4998 + "vnum I I;"
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert err.value.message == "unexpected argument 'I' for command 'vnum'"
    assert (err.value.line, err.value.col) == (5000, 8)
    with pytest.raises(ParseError) as err:
        parse_session(text[:-3])
    assert err.value.message == "unterminated command; expected ';'"
    assert (err.value.line, err.value.col) == (5000, 7)


@pytest.mark.parametrize(
    "text, col",
    [
        ("ring A = [x]; ideal I in A = (x^\u00b2);", 33),
        ("ring A = [x]; ideal I in A = (x); power k=\u00b2 I;", 43),
        ("ring A = [x]; ideal I in A = (\u00bd);", 31),
    ],
)
def test_non_decimal_digit_is_unexpected(text, col):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert err.value.message.startswith("unexpected character")
    assert (err.value.line, err.value.col) == (1, col)


def test_decimal_digits_of_any_script_are_numbers():
    session = parse_session("ring A = [x]; ideal I in A = (x^\u0663);")
    assert session.ideals["I"].gens[0].exp == (3,)


def test_number_too_long_for_int_is_parse_error():
    text = "ring A = [x]; ideal I in A = (x^" + "7" * 5000 + ");"
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert err.value.message == "number too long (5000 digits)"
    assert (err.value.line, err.value.col) == (1, 33)


def test_optional_arguments_take_their_defaults():
    text = (
        "ring A = [x, y]; ideal I in A = (x*y);"
        "intclos I; ntf I; check-property kind=ordinary k=1 I;"
        "intclos k=2 I; check-property kind=ordinary k=1 cap=2 I;"
    )
    resolved = [(cmd.name, cmd.k, cmd.cap) for cmd in parse_session(text).commands]
    assert resolved == [
        ("intclos", 1, None),
        ("ntf", 3, None),
        ("check-property", 1, 6),
        ("intclos", 2, None),
        ("check-property", 1, 2),
    ]


# Mostly the session alphabet, with whitespace and digits of other scripts,
# non-decimal digits (superscripts, fractions, Roman numerals) and letters.
SESSION_CHARS = st.one_of(
    st.sampled_from(list("ringdealxyAIJk_01239=[](),;^*-# \t\r\n")),
    st.sampled_from(list("\u00a0\u2028\u0663\uff17\u00e9\u03b1\u4e00\u00b2\u00bd\u216b\u2460")),
    st.characters(),
)


@settings(max_examples=400, deadline=None)
@given(st.text(SESSION_CHARS, max_size=40))
def test_scanner_matches_character_loop(text):
    """Wherever the character loop's nat tokens are all decimal, the
    scanner gives the same token stream or the same ParseError."""
    old: list[tuple] = []
    old_error = None
    try:
        for tok in scan_chars(text):
            old.append(tok)
    except ParseError as exc:
        old_error = (exc.message, exc.line, exc.col)
    if any(kind == "nat" and not tok.isdecimal() for kind, tok, _, _ in old):
        with pytest.raises(ParseError):
            _tokenize(text)
        return
    try:
        new = positioned(text)
    except ParseError as exc:
        assert (exc.message, exc.line, exc.col) == old_error
    else:
        assert old_error is None
        assert new == old


# ASCII letters and digits, the grammar's punctuation, comments, line
# breaks and whitespace, a non-decimal digit, a non-ASCII letter and "_";
# the second alphabet adds characters outside the grammar.
TOKEN_CHARS = string.ascii_letters + string.digits + "=[](),;^*-#\n\r\x0c \u00b2\u00e9_"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(st.sampled_from(TOKEN_CHARS), max_size=50),
                 st.text(st.sampled_from(TOKEN_CHARS + "!.{"), max_size=50)))
def test_tokens_match_the_branching_oracle(text):
    """The one-pass tokenizer gives the branching loop's tokens at the
    same positions, or raises its ParseError at the same line and column."""
    try:
        expected = branching_tokens(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            _tokenize(text)
        assert (err.value.message, err.value.line, err.value.col) == (exc.message, exc.line, exc.col)
        return
    assert [(kind(tok), tok) for tok in _tokenize(text)] == expected
    assert [_position(text, index) for index in range(len(expected))] == [
        group_position(text, index) for index in range(len(expected))
    ]


SESSION_WORDS = st.sampled_from(
    "ring ideal in A B I J x y = [ ] ( ) , ; ^ * - 0 1 2 k kind cap ordinary "
    "symb-ass intclos colon vnum power ntf # \n \u00b2".split(" ")
)
HEADER = "ring A = [x, y]; ring B = [z]; ideal I in A = (x^2, x*y); ideal J in B = (z);"
# A number-like word in each place a session takes a number.
NUMBER_SLOTS = [
    "ideal K in A = (x^{});",
    "ideal K in A = ({});",
    "power k={} I;",
    "check-property kind=ordinary k=1 cap={} I;",
    "verify-theorem kind=ordinary k={} I J;",
]
NUMBERS = st.one_of(
    st.text(st.sampled_from(list("0179\u0663\uff17\u00b2\u00bd\u2460")), min_size=1, max_size=6),
    st.just("7" * 5000),
)


def outcome(parse, text):
    """What parse makes of text: the session, or the ParseError's message
    and position."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.message, exc.line, exc.col


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(SESSION_CHARS, max_size=60),
        st.lists(SESSION_WORDS, max_size=30).map(" ".join),
        st.lists(SESSION_WORDS, max_size=20).map(lambda words: HEADER + " ".join(words)),
        st.builds(lambda slot, n: HEADER + slot.format(n), st.sampled_from(NUMBER_SLOTS), NUMBERS),
    )
)
def test_parse_session_raises_only_parse_errors(text):
    """Every outcome is a session or a ParseError, the same session or
    the same message, line and column as the replaced descent over (kind,
    text) tokens gives."""
    assert outcome(parse_session, text) == outcome(descent_parse_session, text)


CORPUS = pathlib.Path(__file__).parent / "corpus"


def test_corpus_mutations_match_the_replaced_descent():
    """2,000 seeded mutations of every good and bad corpus session parse
    as the replaced descent parses them; some of them parse."""
    texts = [path.read_text(encoding="utf-8")
             for path in sorted([*CORPUS.glob("good/*.vid"), *CORPUS.glob("bad/*.vid")])]
    rng = random.Random(41)
    parsed = 0
    for _ in range(2000):
        text = mutate_session(rng, rng.choice(texts))
        new = outcome(parse_session, text)
        assert new == outcome(descent_parse_session, text), text
        parsed += not isinstance(new, tuple)
    assert parsed > 50
