"""Core model: capabilities, viewpoint adaptation, type algebra."""
import pytest
from hypothesis import given, strategies as st

from reggio.model import (Cap, CapType, CellHead, ClassName, ClassTable,
                          OPEN_CAPS, UnionType, cap_in, cap_not_in, fresult,
                          leaves, make_cell, make_imm, make_iso, make_mut,
                          subtype, type_wf, vpa, vpa_type)
from reggio.syntax import parse_type

# Hand-transcribed read table: rows = outer capability, columns = field
# capability.  None is "undefined" (the read is not permitted).
M, T, V, I, S, P = Cap.MUT, Cap.TMP, Cap.VAR, Cap.IMM, Cap.ISO, Cap.PAUSED
HAND_TABLE = {
    M: {M: M, T: None, I: I, S: None, P: None, V: None},
    T: {M: M, T: T, I: I, S: None, P: P, V: None},
    V: {M: M, T: T, I: I, S: None, P: P, V: None},
    I: {M: I, T: I, I: I, S: I, P: I, V: None},
    S: {M: None, T: None, I: None, S: None, P: None, V: None},
    P: {M: P, T: P, I: I, S: None, P: P, V: None},
}


def test_vpa_exhaustive_against_hand_table():
    for outer in Cap:
        for inner in Cap:
            assert vpa(outer, inner) == HAND_TABLE[outer][inner], \
                (outer, inner)


def test_vpa_var_column_undefined():
    for outer in Cap:
        assert vpa(outer, Cap.VAR) is None


def test_vpa_iso_row_undefined():
    for inner in Cap:
        assert vpa(Cap.ISO, inner) is None


def test_vpa_imm_row_all_imm_except_var():
    for inner in Cap:
        expect = None if inner is Cap.VAR else Cap.IMM
        assert vpa(Cap.IMM, inner) == expect


def test_vpa_tmp_closure_property():
    # A tmp view only ever arises through a tmp or var outer capability.
    for outer in Cap:
        if outer is Cap.VAR:
            continue
        for inner in Cap:
            if vpa(outer, inner) is Cap.TMP:
                assert outer is Cap.TMP


def test_open_caps():
    assert OPEN_CAPS == {Cap.MUT, Cap.TMP, Cap.VAR, Cap.PAUSED}


# -- type-level adaptation ----------------------------------------------------

def _t(src: str):
    return parse_type(src)


@pytest.fixture(scope="module")
def classes():
    table = ClassTable()
    table.declare("C", [])
    table.declare("D", [("f", _t("mut C")), ("g", _t("iso C"))])
    return table


def test_vpa_type_adapts_only_leaf_caps():
    t = _t("mut Cell[iso C]")
    out = vpa_type(Cap.TMP, t)
    assert out == _t("mut Cell[iso C]")  # Cell parameter untouched


def test_vpa_type_leafwise_union():
    assert vpa_type(Cap.PAUSED, _t("mut C | imm C")) == _t(
        "paused C | imm C")


def test_vpa_type_undefined_if_any_leaf_undefined():
    assert vpa_type(Cap.PAUSED, _t("mut C | iso C")) is None


def test_fresult(classes):
    assert fresult(_t("mut D"), "f", classes) == _t("mut C")
    assert fresult(_t("mut D"), "g", classes) is None  # mut |> iso undefined
    assert fresult(_t("paused D"), "f", classes) == _t("paused C")
    assert fresult(_t("mut D"), "missing", classes) is None
    assert fresult(_t("var Cell[mut C]"), "val", classes) == _t("mut C")
    assert fresult(_t("var Cell[iso C]"), "val", classes) is None


# -- cap predicates and rebinding helpers --------------------------------------

def test_cap_predicates():
    assert cap_in({Cap.MUT, Cap.IMM}, _t("mut C | imm C"))
    assert not cap_in({Cap.MUT}, _t("mut C | imm C"))
    assert cap_not_in({Cap.ISO}, _t("mut C | imm C"))
    assert not cap_not_in({Cap.IMM}, _t("mut C | imm C"))


# Every capability over a class head and a Cell head, as a lone leaf and
# in a two-leaf union with each leaf.
LEAVES = [CapType(k, h) for k in Cap
          for h in (ClassName("C"), CellHead(CapType(Cap.MUT, ClassName("C"))))]
LEAF_AND_UNION_TYPES = LEAVES + [UnionType(a, b) for a in LEAVES
                                 for b in LEAVES]


def test_cap_predicates_match_leafwise_definition():
    for ks in [frozenset(), OPEN_CAPS, frozenset(Cap)] + [{k} for k in Cap]:
        for t in LEAF_AND_UNION_TYPES:
            assert cap_in(ks, t) == all(
                leaf.cap in ks for leaf in leaves(t)), (ks, t)
            assert cap_not_in(ks, t) == all(
                leaf.cap not in ks for leaf in leaves(t)), (ks, t)


def test_make_helpers():
    assert make_iso(_t("mut C | imm C")) == _t("iso C | imm C")
    assert make_mut(_t("iso C | imm C")) == _t("mut C | imm C")
    assert make_imm(_t("iso C | mut C")) == _t("imm C | mut C")
    assert make_cell(_t("mut C")) == _t("var Cell[mut C]")
    # make_cell distributes over unions
    assert make_cell(_t("mut C | imm C")) == _t(
        "var Cell[mut C] | var Cell[imm C]")


# -- subtyping ----------------------------------------------------------------

def test_subtype_reflexive_and_union():
    assert subtype(_t("mut C"), _t("mut C"))
    assert subtype(_t("mut C"), _t("mut C | imm C"))
    assert subtype(_t("mut C | imm C"), _t("imm C | mut C"))
    assert not subtype(_t("mut C | imm C"), _t("mut C"))
    assert not subtype(_t("mut C"), _t("tmp C"))


def test_subtype_cell_parameter_equivalence():
    assert subtype(_t("var Cell[mut C | imm C]"),
                   _t("var Cell[imm C | mut C]"))
    assert not subtype(_t("var Cell[mut C]"), _t("var Cell[mut C | imm C]"))


_caps = st.sampled_from(list(Cap))
_heads = st.sampled_from(["C", "D"])
_leaf_types = st.builds(lambda k, c: CapType(k, ClassName(c)), _caps, _heads)
_types = st.recursive(
    _leaf_types,
    lambda inner: st.one_of(
        st.builds(UnionType, inner, inner),
        st.builds(lambda k, t: CapType(k, CellHead(t)), _caps, inner)),
    max_leaves=6)


@given(_types)
def test_subtype_reflexive_prop(t):
    assert subtype(t, t)


@given(_types, _types)
def test_union_left_requires_both(t1, t2):
    u = UnionType(t1, t2)
    assert subtype(u, u)
    assert subtype(t1, u)
    assert subtype(t2, u)


@given(_types)
def test_leaves_cover_unions(t):
    ls = list(leaves(t))
    assert ls
    assert all(isinstance(lf, CapType) for lf in ls)


def test_type_wf(classes):
    assert type_wf(_t("mut D"), classes)
    assert not type_wf(_t("mut Nope"), classes)
    assert type_wf(_t("var Cell[mut C]"), classes)
    assert not type_wf(_t("var Cell[mut Nope]"), classes)


def test_class_table_rejects_var_fields():
    table = ClassTable()
    with pytest.raises(KeyError):
        table.declare("Bad", [("f", _t("var Cell[mut Bad]"))])


def test_class_table_rejects_duplicates():
    table = ClassTable()
    table.declare("C", [])
    with pytest.raises(KeyError):
        table.declare("C", [])
