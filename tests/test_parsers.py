"""The ordinal, family and term parsers against the tokenizing parsers they
replaced, which are kept below as references.

The parsers now read every ordinal in place with one reader, so an
interval ends where its ordinal grammar ends and an error names its
position in the given text.  Every text the references accept gives the
same value, and every text they reject is rejected with the same exception
class, with two exceptions named where they are allowed: a term word that
the references' `^(` depth scan read into an operation name, and a text
whose malformed interval the reference tokenizer found before a fault
earlier in the text.
"""

import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import ordinals, pwc_over, terms_over

from translim import (
    INDEX,
    OMEGA,
    ONE,
    ZERO_TERM,
    App,
    LengthMismatchError,
    Lim,
    ParseError,
    PwcSeq,
    Sum,
    Var,
    format_pwc,
    format_term,
    from_int,
    omega_power,
    parse_instance,
    parse_ordinal,
    parse_pwc,
    parse_term,
)
from translim.cli import main


# -- references: the parsers as they were before the single reader ----------


class _RefOrdParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message):
        raise ParseError(message, self.pos)

    def nat(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected a number")
        return int(self.text[start:self.pos])

    def exp(self):
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return omega_power(self.exp())
            return OMEGA
        if ch == "(":
            self.pos += 1
            val = self.sum()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return val
        if ch.isdigit():
            return from_int(self.nat())
        self.fail("expected an exponent")

    def term(self):
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            e = ONE
            if self.peek() == "^":
                self.pos += 1
                e = self.exp()
            c = 1
            if self.peek() == "*":
                self.pos += 1
                c = self.nat()
            return omega_power(e, c)
        if ch.isdigit():
            return from_int(self.nat())
        self.fail("expected 'w' or a number")

    def sum(self):
        val = self.term()
        while self.peek() == "+":
            self.pos += 1
            val = val + self.term()
        return val


def ref_parse_ordinal(text):
    p = _RefOrdParser(text.replace(" ", ""))
    if not p.text:
        raise ParseError("empty ordinal", 0)
    val = p.sum()
    if p.pos != len(p.text):
        p.fail(f"unexpected {p.text[p.pos]!r}")
    return val


def ref_parse_pwc(text, parse_value):
    text = text.strip()
    if text in ("", "empty"):
        return PwcSeq.empty()
    pieces = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk.startswith("["):
            raise ParseError(f"piece must start with '[': {chunk!r}")
        interval, arrow, value_text = chunk.partition("->")
        if not arrow:
            raise ParseError(f"piece missing '->': {chunk!r}")
        interval = interval.strip()
        if not interval.endswith(")"):
            raise ParseError(f"piece missing ')': {chunk!r}")
        try:
            lo_text, hi_text = interval[1:-1].split(",")
        except ValueError:
            raise ParseError(f"interval needs one comma: {interval}") from None
        lo = ref_parse_ordinal(lo_text)
        hi = ref_parse_ordinal(hi_text)
        value_text = value_text.strip()
        try:
            value = parse_value(value_text)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad piece value {value_text!r}: {exc}") from exc
        pieces.append((lo, hi, value))
    return PwcSeq.from_pieces(pieces)


def ref_tokenize_term(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            toks.append((c, c, i))
            i += 1
            continue
        if c == "[":
            j, depth = i + 1, 0
            while j < n:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    if not depth:
                        break
                    depth -= 1
                j += 1
            else:
                raise ParseError("unterminated interval", i)
            if text[j + 1:j + 3] != "->":
                raise ParseError("interval must be followed by '->'", j + 1)
            toks.append(("piece", text[i + 1:j], i))
            i = j + 3
            continue
        j = i
        depth = 0
        while j < n:
            c2 = text[j]
            if depth == 0 and (c2.isspace() or c2 in ")["):
                break
            if c2 == "(":
                if j > i and text[j - 1] == "^":
                    depth += 1
                else:
                    break
            elif c2 == ")":
                depth -= 1
            j += 1
        toks.append(("atom", text[i:j], i))
        i = j
    return toks


class _RefTermParser:
    def __init__(self, text):
        self.toks = ref_tokenize_term(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, -1)

    def take(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of term")
        self.pos += 1
        return tok

    def atom_text(self, what):
        kind, text, at = self.take()
        if kind != "atom":
            raise ParseError(f"expected {what}", at)
        return text

    def term(self):
        kind, text, at = self.take()
        if kind == "atom":
            return self.leaf(text)
        if kind != "(":
            raise ParseError("expected a term", at)
        head = self.atom_text("an operation")
        if head in ("sum", "lim"):
            length = ref_parse_ordinal(self.atom_text("a length ordinal"))
            pieces = []
            while self.peek()[0] == "piece":
                _, inside, pat = self.take()
                try:
                    lo_text, hi_text = inside.split(",")
                except ValueError:
                    raise ParseError("interval needs one comma", pat) from None
                pieces.append((ref_parse_ordinal(lo_text),
                               ref_parse_ordinal(hi_text), self.term()))
            self.close()
            fam = PwcSeq.from_pieces(pieces)
            if fam.length != length:
                raise LengthMismatchError(
                    f"pieces cover {fam.length}, node declares {length}")
            return (Sum if head == "sum" else Lim)(length, fam)
        if head == "scal":
            r_text = self.atom_text("a scalar")
            if not r_text.isdigit():
                raise ParseError(f"scalar must be a natural number: {r_text!r}")
            body = self.term()
            self.close()
            return App(("scal", int(r_text)), (body,))
        args = []
        while self.peek()[0] != ")":
            if self.peek()[0] is None:
                raise ParseError("missing ')'")
            args.append(self.term())
        self.close()
        return App(head, tuple(args))

    def leaf(self, text):
        if text == "zero":
            return ZERO_TERM
        if text == "idx":
            return INDEX
        if text.startswith("x") and len(text) > 1:
            return Var(ref_parse_ordinal(text[1:]))
        return App(text, ())

    def close(self):
        kind, _, at = self.take()
        if kind != ")":
            raise ParseError("expected ')'", at)


def ref_parse_term(text):
    p = _RefTermParser(text)
    t = p.term()
    if p.pos != len(p.toks):
        raise ParseError("trailing input after term", p.toks[p.pos][2])
    return t


# -- comparison -----------------------------------------------------------------


def _outcome(parse, text):
    try:
        return ("value", parse(text))
    except Exception as exc:  # the class is what is compared
        return ("error", type(exc))


def _reference_only(text):
    """Why the references may decide `text` differently, or None.

    Their `^(` depth scan let a word run into an operation name, where
    '^(' is now an error; and their tokenizer checked every interval before
    reading any node, where the reader reports the first fault in reading
    order.
    """
    try:
        ref_tokenize_term(text)
    except ParseError:
        return "tokenizer"
    try:
        parse_term(text)
    except ParseError as exc:
        if "'^(' opens an exponent only inside an ordinal" in str(exc):
            return "'^(' in a word"
    return None


def assert_term_matches(text):
    ref, new = _outcome(ref_parse_term, text), _outcome(parse_term, text)
    if ref != new:
        why = _reference_only(text)
        assert why is not None, (text, ref, new)
        if why == "tokenizer":
            assert new[0] == "error" and \
                new[1] in (ParseError, LengthMismatchError), (text, new)
        else:
            assert new == ("error", ParseError), (text, why, new)


def assert_pwc_matches(text):
    assert _outcome(lambda s: ref_parse_pwc(s, int), text) == \
        _outcome(lambda s: parse_pwc(s, int), text), text


def assert_ordinal_matches(text):
    assert _outcome(ref_parse_ordinal, text) == \
        _outcome(parse_ordinal, text), text


# -- strategies ------------------------------------------------------------------


@st.composite
def blanked(draw, text):
    """text with ' ' inserted at drawn positions."""
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=4)))
    out, prev = [], 0
    for c in cuts:
        out += [text[prev:c], " "]
        prev = c
    return "".join(out + [text[prev:]])


SPACE = st.sampled_from(["", " ", "  ", "\t", "\n "])

ORDINAL_TOKENS = ["w", "^", "(", ")", "*", "+", "0", "1", "2", "10", " ",
                  "w^(", "w^w", "x", "\t"]
PWC_TOKENS = ORDINAL_TOKENS + ["[", ",", ")", "->", ";", " -> ", "empty",
                               "[0,", "w)", "->1", "->-"]
TERM_TOKENS = ORDINAL_TOKENS + ["[", ",", "->", "(", "(sum ", "(lim ",
                                "(scal ", "(+ ", "(- ", "x", "x0", "xw",
                                "idx", "zero", "f", "[0,", "w)->", "\n"]


def token_text(tokens):
    return st.lists(st.sampled_from(tokens), max_size=14).map("".join)


# -- the parsers against the references --------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_formatted_terms_read_as_the_references_read_them(data):
    alpha = data.draw(ordinals(max_depth=3).filter(lambda a: not a.is_zero))
    t = data.draw(terms_over(alpha))
    text = format_term(t)
    assert parse_term(text) == ref_parse_term(text) == t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_blanked_families_read_as_the_references_read_them(data):
    module, fam = data.draw(pwc_over())
    pieces = []
    for lo, hi, v in fam.pieces():
        lo_text = data.draw(blanked(str(lo)))
        hi_text = data.draw(blanked(str(hi)))
        s = [data.draw(SPACE) for _ in range(4)]
        pieces.append(f"{s[0]}[ {lo_text},{hi_text} ){s[1]}->{s[2]}"
                      f"{module.format_element(v)}{s[3]}")
    for text in (";".join(pieces), format_pwc(fam, module.format_element)):
        assert parse_pwc(text, module.parse_element) == fam
        assert ref_parse_pwc(text, module.parse_element) == fam


@settings(max_examples=400, deadline=None)
@given(st.one_of(token_text(ORDINAL_TOKENS),
                 st.text(alphabet="w^*+()0123 x\t", max_size=14)))
def test_random_ordinal_texts_match_the_reference(text):
    assert_ordinal_matches(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(token_text(PWC_TOKENS),
                 st.text(alphabet="[],;()->w^*+0123 \t", max_size=20)))
def test_random_family_texts_match_the_reference(text):
    assert_pwc_matches(text)


@settings(max_examples=600, deadline=None)
@given(st.one_of(token_text(TERM_TOKENS),
                 st.text(alphabet="()[],->w^*+0123 xidsuml\t", max_size=20)))
def test_random_term_texts_match_the_reference(text):
    assert_term_matches(text)


@pytest.mark.parametrize("text,why,error", [
    ("^(scal 2 x", "'^(' in a word", ParseError),
    ("(f a^(b))", "'^(' in a word", ParseError),
    ("(+ (sum w [0,1)->x0) [0,w", "tokenizer", LengthMismatchError),
])
def test_the_references_alone_read_these(text, why, error):
    assert _reference_only(text) == why
    assert _outcome(ref_parse_term, text)[0] == \
        ("error" if why == "tokenizer" else "value")
    with pytest.raises(error):
        parse_term(text)


# -- error positions ---------------------------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (("term", "parse", "(+ x0 xw^)"), "expected an exponent (at position 9)"),
    (("term", "parse", "(sum w [0,w^)->idx)"),
     "expected an exponent (at position 12)"),
    (("term", "parse", "(sum w [0, w^)->idx)"),
     "expected an exponent (at position 13)"),
    (("ordinal", "fmt", "w + x"), "expected 'w' or a number (at position 4)"),
    (("term", "eval", "(+ x0 x1)", "--module", "Z/4",
      "--seq", "[0,1)->1; [1, w^) -> 2"),
     "expected an exponent (at position 16)"),
])
def test_errors_name_their_position_in_the_given_text(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_blanks_sit_anywhere_in_literals_and_bounds():
    assert parse_ordinal("1 0") == from_int(10)
    z4 = parse_instance("Z/4")
    assert parse_pwc("[ 0 , w ) -> 3", z4.parse_element) == \
        PwcSeq.constant(z4.parse_element("3"), OMEGA)
    assert parse_term("(+ x1 2)") == App("+", (Var(ONE), App("2", ())))


@pytest.mark.parametrize("text,outcome", [
    ("(+ xw^(w + 1) x0)", "value"),
    ("(sum w^(w + 1) [0,w^(w + 1))->idx)", "value"),
    ("(lim w^( w^( 2 ) ) [0,w^( w^( 2 ) ))->x1)", "value"),
    ("(+ xw^(w^ 2) x0)", "value"),
    ("(+ xw^(w^ (w+1)) x0)", "error"),
    ("(+ xw^ (w+1) x0)", "error"),
])
def test_blanks_inside_an_exponent_read_as_the_references_read_them(
        text, outcome):
    assert _outcome(parse_term, text) == _outcome(ref_parse_term, text)
    assert _outcome(parse_term, text)[0] == outcome


DEEP_EXPONENT = "w^(" * 3000 + "1" + ")" * 3000


@pytest.mark.parametrize("parse,text", [
    (parse_ordinal, DEEP_EXPONENT),
    (parse_ordinal, "w^" * 3000 + "1"),
    (lambda text: parse_pwc(text, int), f"[0,{DEEP_EXPONENT}) -> 1"),
    (parse_term, "(- " * 3000 + "x0" + ")" * 3000),
    (parse_term, f"(+ x{DEEP_EXPONENT} x0)"),
], ids=["ordinal-parens", "ordinal-bare", "pwc-interval", "term-nodes",
        "term-variable"])
def test_text_nested_past_the_recursion_limit_is_a_parse_error(parse, text):
    # the message the CLI prints for it, so its stderr is the same either way
    message = (f"input nests deeper than the recursion limit "
               f"({sys.getrecursionlimit()})")
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message and info.value.position is None
