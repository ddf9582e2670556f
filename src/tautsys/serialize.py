"""Deterministic exact serialization.

Every coefficient travels as a "num" or "num/den" string, never a float;
term lists are emitted in canonical order so serialized artifacts are
byte-stable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .exact import Rat, SparsePoly, as_rat
from .membership import MembershipCertificate
from .model import LatticeRelation, ModelSpec
from .series import LaurentSeries
from .systems import DiffSystem
from .weyl import WeylOperator, _term_order


def rat_str(value: Rat) -> str:
    if type(value) is int:  # not a bool, which `as_rat` writes as 0 or 1
        return str(value)
    value = as_rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rat_parse(text: str) -> Rat:
    return Fraction(text)


def poly_to_obj(poly: SparsePoly) -> dict:
    return {
        "family": poly.family,
        "arity": poly.arity,
        "terms": [
            {"exponents": list(exp), "coeff": rat_str(coeff)}
            for exp, coeff in poly.sorted_terms()],
    }


def poly_from_obj(obj: dict) -> SparsePoly:
    return SparsePoly(
        obj["family"], obj["arity"],
        {tuple(t["exponents"]): rat_parse(t["coeff"]) for t in obj["terms"]})


def series_to_obj(series: LaurentSeries) -> dict:
    return {
        "n": series.n,
        "i0": series.i0,
        "truncation": series.truncation,
        "terms": [
            {"a_exp": list(a), "b_exp": list(b), "coeff": rat_str(coeff)}
            for (a, b), coeff in series.sorted_terms()],
    }


def series_from_obj(obj: dict) -> LaurentSeries:
    return LaurentSeries(
        obj["n"], obj["i0"],
        {(tuple(t["a_exp"]), tuple(t["b_exp"])): rat_parse(t["coeff"])
         for t in obj["terms"]},
        obj["truncation"])


def operator_to_obj(op: WeylOperator) -> dict:
    return {
        "n": op.n,
        "families": list(op.families),
        "terms": [
            {
                "coord_1": list(c1),
                "coord_2": list(c2),
                "deriv_1": list(d1),
                "deriv_2": list(d2),
                "coeff": rat_str(coeff),
            }
            for (c1, c2, d1, d2), coeff in op.sorted_terms()],
    }


def operator_from_obj(obj: dict) -> WeylOperator:
    return WeylOperator(
        obj["n"],
        {(tuple(t["coord_1"]), tuple(t["coord_2"]),
          tuple(t["deriv_1"]), tuple(t["deriv_2"])): rat_parse(t["coeff"])
         for t in obj["terms"]},
        tuple(obj["families"]))


def model_to_obj(spec: ModelSpec) -> dict:
    return {
        "d": spec.d,
        "n": spec.n,
        "basis": [list(exp) for exp in spec.basis],
        "i0": spec.i0,
        "ordering": spec.ordering,
    }


def model_from_obj(obj: dict) -> ModelSpec:
    return ModelSpec(
        d=obj["d"], n=obj["n"],
        basis=tuple(tuple(exp) for exp in obj["basis"]),
        i0=obj["i0"], ordering=obj["ordering"])


def relation_to_obj(rel: LatticeRelation) -> dict:
    return {"vector": list(rel.vector)}


def system_to_obj(system: DiffSystem) -> dict:
    return _system_obj(system, map(operator_to_obj, system.operators))


def _system_obj(system: DiffSystem, operators) -> dict:
    return {
        "kind": system.kind,
        "n": system.n,
        "p": system.p,
        "beta_e": rat_str(system.beta_e),
        "operators": [
            {"label": label, "operator": op}
            for label, op in zip(system.labels, operators)],
    }


def build_system_document(spec: ModelSpec, relations: list[LatticeRelation],
                          system: DiffSystem) -> dict:
    """What `tautsys build-system` writes: the forms of `model_to_obj`,
    `relation_to_obj` and `system_to_obj`, but with the relations and
    operators left as objects, which `dumps` writes straight from them."""
    return {
        "model": model_to_obj(spec),
        "relations": relations,
        "system": _system_obj(system, system.operators),
    }


def certificate_to_obj(cert: MembershipCertificate) -> dict:
    return {"q": [poly_to_obj(q) for q in cert.q]}


def certificate_from_obj(obj: dict) -> MembershipCertificate:
    return MembershipCertificate(
        q=tuple(poly_from_obj(q) for q in obj["q"]))


def dumps(obj: dict) -> str:
    """Canonical JSON text: on every value it accepts, exactly the text of
    `json.dumps(obj, sort_keys=True, indent=2) + "\n"`, written in one pass.

    Strings and keys are quoted by the C helper that `json.dumps` uses
    under `ensure_ascii`; a list of plain ints is written by one `join`,
    memoized for this call and indent only, since exponent vectors repeat
    across terms (85% of the int lists in the `build-system` payloads are
    repeats).  A `WeylOperator` or a `LatticeRelation` (exact type, not a
    subclass) is written straight from its terms or vector as the text of
    its `operator_to_obj` or `relation_to_obj` form, with no dict or list
    made for it.  A float, a non-`str` key or any other type raises
    `TypeError`; `_quote` refuses a non-`str` key.
    """
    chunks: list[str] = []
    _write(obj, chunks, {}, "\n")
    chunks.append("\n")
    return "".join(chunks)


# exact types, not isinstance: `True` equals 1 in a memo key but is written
# `true`
_PLAIN_INT = {int}


class _IntLists(dict):
    """The text of each plain-int tuple written at one indent, made on
    first use; one per indent and `dumps` call."""

    __slots__ = ("newline",)

    def __init__(self, newline: str):
        super().__init__()
        self.newline = newline

    def __missing__(self, values: tuple[int, ...]) -> str:
        inner = self.newline + "  "
        text = self[values] = ("[" + inner + ("," + inner).join(
            map(int.__repr__, values)) + self.newline + "]")
        return text


def _int_lists(ints: dict, newline: str) -> _IntLists:
    memo = ints.get(newline)
    if memo is None:
        memo = ints[newline] = _IntLists(newline)
    return memo


def _write(value, chunks: list[str], ints: dict, newline: str) -> None:
    """Append `value` to `chunks`; `newline` is the line break and indent
    of the line that `value` starts on; `ints` maps each indent to its
    `_IntLists`."""
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            chunks.append(separator + _quote(key) + ": ")
            _write(value[key], chunks, ints, inner)
            separator = "," + inner
        chunks.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        if set(map(type, value)) == _PLAIN_INT:
            chunks.append(_int_lists(ints, newline)[tuple(value)])
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            chunks.append(separator)
            _write(item, chunks, ints, inner)
            separator = "," + inner
        chunks.append(newline + "]")
    elif isinstance(value, str):
        chunks.append(_quote(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif type(value) is WeylOperator:
        _write_operator(value, chunks, ints, newline)
    elif type(value) is LatticeRelation:
        inner = newline + "  "
        chunks.append(f'{{{inner}"vector": '
                      f'{_int_lists(ints, inner)[value.vector]}{newline}}}')
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")


def _write_operator(op: WeylOperator, chunks: list[str], ints: dict,
                    newline: str) -> None:
    """Append the text of `operator_to_obj(op)` straight from its terms,
    in the keys' sorted order: "families", "n", "terms", and per term
    "coeff", "coord_1", "coord_2", "deriv_1", "deriv_2"."""
    inner = newline + "  "
    item = inner + "  "
    field = item + "  "
    # `exact.exponents` and the trusted builders make exponent tuples of
    # plain ints only, so each tuple is its own memo key
    exps = _int_lists(ints, field)
    terms = op.terms
    parts = []
    for key in sorted(terms, key=_term_order):
        c1, c2, d1, d2 = key
        parts.append(
            f'{{{field}"coeff": "{rat_str(terms[key])}",'
            f'{field}"coord_1": {exps[c1]},{field}"coord_2": {exps[c2]},'
            f'{field}"deriv_1": {exps[d1]},{field}"deriv_2": {exps[d2]}'
            f'{item}}}')
    body = ("[" + item + ("," + item).join(parts) + inner + "]" if parts
            else "[]")
    family_1, family_2 = map(_quote, op.families)
    chunks.append(
        f'{{{inner}"families": [{item}{family_1},{item}{family_2}{inner}],'
        f'{inner}"n": {op.n},{inner}"terms": {body}{newline}}}')
