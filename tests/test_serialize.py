"""Serialization roundtrips and byte stability."""

from fractions import Fraction

from tautsys import serialize
from tautsys.exact import SparsePoly
from tautsys.membership import MembershipCertificate
from tautsys.model import build_projective_model, lattice_relations
from tautsys.periods import period_series
from tautsys.systems import build_scalar_system
from tautsys.weyl import coord_a, d_a, d_b, euler_a


def test_rat_strings_are_exact():
    assert serialize.rat_str(Fraction(1, 2)) == "1/2"
    assert serialize.rat_str(Fraction(-7)) == "-7"
    for value in (0, 1, -1, 7, -2**70, 2**70):
        assert serialize.rat_str(value) == serialize.rat_str(Fraction(value))
    assert (serialize.rat_str(True), serialize.rat_str(False)) == ("1", "0")
    assert serialize.rat_parse("1/2") == Fraction(1, 2)
    assert serialize.rat_parse("-7") == -7


def test_poly_roundtrip():
    poly = SparsePoly("a", 3, {(-2, 1, 0): Fraction(3, 7), (0, 0, 0): -1})
    assert serialize.poly_from_obj(serialize.poly_to_obj(poly)) == poly


def test_series_roundtrip():
    spec = build_projective_model(1, ordering="interior-first")
    series = period_series(spec, 6)
    again = serialize.series_from_obj(serialize.series_to_obj(series))
    assert again == series
    assert again.truncation == series.truncation


def test_operator_roundtrip():
    op = euler_a(3) + 2 - 3 * (coord_a(3, 1) * d_a(3, 0) * d_b(3, 2))
    again = serialize.operator_from_obj(serialize.operator_to_obj(op))
    assert again == op


def test_system_serialization_is_byte_stable():
    spec = build_projective_model(1, ordering="interior-first")
    rels = lattice_relations(spec, 2)
    system = build_scalar_system(spec, rels, 1)
    first = serialize.dumps(serialize.system_to_obj(system))
    second = serialize.dumps(serialize.system_to_obj(
        build_scalar_system(spec, rels, 1)))
    assert first == second
    assert "0.0" not in first  # never floating point


def test_model_roundtrip():
    spec = build_projective_model(2, ordering="interior-first")
    again = serialize.model_from_obj(serialize.model_to_obj(spec))
    assert again == spec


def test_certificate_roundtrip():
    cert = MembershipCertificate(q=(
        SparsePoly("x", 2, {(0, 1): Fraction(1, 2)}),
        SparsePoly.zero("x", 2)))
    again = serialize.certificate_from_obj(serialize.certificate_to_obj(cert))
    assert again == cert


def test_operator_format_is_readable():
    op = euler_a(2) + 1
    text = op.format()
    assert "a0*Da0" in text and "a1*Da1" in text and "1" in text
    dual = op.fourier()
    assert "zeta" in dual.format()
