"""Lexer, parser, pretty-printer: round-trip and error reporting."""
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reggio.fuzz import GenConfig, generate
from reggio.syntax import (_PUNCT, KEYWORDS, Enter, Let, New, ParseError,
                           lex, parse_expr, parse_program, parse_type,
                           pretty_expr, pretty_program, pretty_type)
from reggio.typecheck import TypeCheckError, check_program


def test_tokenize_comments_and_positions():
    toks = list(lex("let x = // hi\n  y"))
    assert [t.text for t in toks[:-1]] == ["let", "x", "=", "y"]
    assert toks[3].pos == (2, 3)


def test_parse_listing_shape():
    src = open("corpus/listing1.rgo", encoding="utf-8").read()
    prog = parse_program(src)
    # two freeze-chains and one enter block capturing the immutable value
    freezes, enters = [], []

    def walk(e):
        if isinstance(e, Let):
            walk(e.binding)
            walk(e.body)
        elif isinstance(e, Enter):
            enters.append(e)
            walk(e.body)
        elif type(e).__name__ == "Freeze":
            freezes.append(e)

    walk(prog.main)
    assert len(freezes) == 2
    assert len(enters) == 1
    assert [u.name for _, u in enters[0].captures] == ["i"]


def test_roundtrip_listing_ast():
    src = open("corpus/listing1.rgo", encoding="utf-8").read()
    prog = parse_program(src)
    printed = pretty_program(prog)
    again = pretty_program(parse_program(printed))
    assert printed == again


@pytest.mark.parametrize("seed", range(100))
def test_roundtrip_generated_programs(seed):
    prog = generate(GenConfig(seed=seed, max_depth=6))
    printed = pretty_program(prog)
    assert pretty_program(parse_program(printed)) == printed


_caps = st.sampled_from(["iso", "var", "mut", "tmp", "paused", "imm"])
_tysrc = st.recursive(
    st.builds(lambda k: f"{k} C", _caps),
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"{a} | {b}", inner, inner),
        st.builds(lambda k, t: f"{k} Cell[{t}]", _caps, inner)),
    max_leaves=8)


@given(_tysrc)
@settings(max_examples=300)
def test_roundtrip_types(src):
    t = parse_type(src)
    assert parse_type(pretty_type(t)) == t


def test_parse_expr_forms():
    e = parse_expr("let x = new mut C() in drop x")
    assert isinstance(e, Let) and isinstance(e.binding, New)
    e = parse_expr("let x = (let y = var z in y) in x")
    assert isinstance(e.binding, Let)
    e = parse_expr("let x = (y.f := u) in x")
    assert e.binding.target.fld == "f"
    e = parse_expr("let x = (y := u) in x")
    assert e.binding.target.fld is None
    e = parse_expr(
        "if typetest(u, mut C) { y => y } else { y => drop y }")
    assert e.binder == "y"


def test_parse_errors():
    for src, frag in [
        ("let x = in x", "expected"),
        ("let x = new C() in x", "capability"),
        ("x | y", "eof"),
        ("let x = ~y in x", "unexpected"),
        ("if typetest(u, mut C) { y => y } else { z => z }",
         "same name"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert frag in str(exc.value)


def test_identifiers_cannot_start_reserved():
    with pytest.raises(ParseError):
        parse_expr("$x")


def test_duplicate_class_is_parse_error():
    with pytest.raises(ParseError):
        parse_program("class C {} class C {} x")


def test_pretty_expr_parenthesizes_nested_let():
    e = parse_expr("let x = (let y = new mut C() in y) in x")
    assert pretty_expr(e).startswith("let x = (let ")
    # str prints by the same rule, so its text parses back too.
    assert str(e) == pretty_expr(e)
    assert parse_expr(str(e)) == e


# -- robustness: any token sequence parses, or fails with ParseError ---------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
_WORDS = sorted(KEYWORDS) + list(_PUNCT) + ["x", "y", "z", "f", "g", "val",
                                            "C", "D", "Unit", "main", "r"]
_CORPUS = [[t.text for t in lex(p.read_text(encoding="utf-8"))][:-1]
           for p in sorted(CORPUS.glob("*.rgo"))]
_soup = st.lists(st.sampled_from(_WORDS), max_size=60)


@st.composite
def _mutated_corpus(draw):
    """A corpus program after one to three token inserts, deletes and
    replacements; a new token comes from the program itself or _WORDS."""
    toks = list(draw(st.sampled_from(_CORPUS)))
    words = st.sampled_from(toks) | st.sampled_from(_WORDS)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            toks.insert(draw(st.integers(0, len(toks))), draw(words))
        elif toks:
            i = draw(st.integers(0, len(toks) - 1))
            if op == "delete":
                del toks[i]
            else:
                toks[i] = draw(words)
    return toks


@given(st.one_of(_soup, _mutated_corpus()))
@settings(max_examples=800, deadline=None)
def test_token_sequences_parse_or_raise_parse_error(toks):
    """Token soup and mutated corpus programs reach ParseError or a program;
    a program then type checks or raises TypeCheckError.  Any other
    exception is a defect."""
    try:
        prog = parse_program(" ".join(toks))
    except ParseError:
        return
    try:
        check_program(prog)
    except TypeCheckError:
        pass
