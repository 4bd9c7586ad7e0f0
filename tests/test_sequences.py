import numpy as np
import pytest

from rieszops.sequences import (
    affine,
    explicit,
    geometric,
    harmonic,
    ones,
    parse_spec,
    poly,
    sqrt_poly,
)


def test_poly_zero_power_is_all_ones():
    np.testing.assert_allclose(ones().terms(5), np.ones(5))


def test_poly_positive_power_starts_at_zero():
    np.testing.assert_allclose(poly(2.0).terms(4), [0, 1, 4, 9])


def test_poly_negative_power_starts_at_zero():
    np.testing.assert_allclose(harmonic().terms(4), [0, 1, 0.5, 1 / 3])


def test_sqrt_poly_matches_square_root():
    np.testing.assert_allclose(sqrt_poly(1.0).terms(5), np.sqrt([0, 1, 2, 3, 4]))


def test_geometric_terms():
    np.testing.assert_allclose(geometric(0.5).terms(4), [1, 0.5, 0.25, 0.125])


def test_affine_terms():
    np.testing.assert_allclose(affine(2.0, 1.0).terms(3), [1, 3, 5])


_TERM_SPECS = (
    "poly:0",
    "poly:2",
    "harmonic",
    "sqrt-poly:1",
    "geometric:1.05",
    "geometric:0.9+0.2j",
    "affine:-1,3",
    "list:" + ",".join(str(v) for v in (np.arange(64) * (0.5 - 0.25j) - 3)),
)


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("text", _TERM_SPECS)
@pytest.mark.parametrize("count", [0, 1, 3, 64])
def test_terms_match_term_by_term(text, conjugate, count):
    spec = parse_spec(text)
    spec = spec.conjugate() if conjugate else spec
    got = spec.terms(count)
    want = np.array([spec.term(k) for k in range(count)], dtype=complex)
    assert got.dtype == np.complex128 and got.shape == (count,)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_terms_of_limited_list_reject_one_past_the_end():
    spec = parse_spec("list:1,2j,3")
    assert spec.terms(3).shape == (3,)
    for limited in (spec, spec.conjugate()):
        with pytest.raises(ValueError, match="emits only"):
            limited.terms(limited.length + 1)


def test_poly_terms_never_raise_zero_to_a_negative_power():
    with np.errstate(divide="raise", invalid="raise"):
        assert harmonic().terms(3)[0] == 0.0
        assert poly(-2.5).terms(1)[0] == 0.0


def test_explicit_length_enforced():
    spec = explicit([1.0, 2.0])
    assert spec.length == 2
    with pytest.raises(ValueError, match="emits only"):
        spec.terms(3)


def test_is_real_flags():
    assert poly(1.0).is_real
    assert not poly(1.0, scale=1j).is_real
    assert not explicit([1.0, 1j]).is_real
    assert geometric(-2.0).is_real


def test_abs_monotone_flags():
    assert poly(1.0).abs_monotone
    assert not harmonic().abs_monotone  # 0, 1, 1/2, ... dips after n = 1
    assert geometric(2.0).abs_monotone
    assert not geometric(0.5).abs_monotone
    assert affine(1.0, 0.0).abs_monotone
    assert not affine(-1.0, 2.0).abs_monotone  # |2 - n| dips at n = 2
    assert explicit([0.0, 1.0, 2.0]).abs_monotone
    assert not explicit([0.0, 2.0, 1.0]).abs_monotone


def test_abs_monotone_complex_affine():
    # |a n + b| is monotone iff |a|^2 + 2 Re(a conj(b)) >= 0
    spec = affine(1j, 1.0)
    assert spec.abs_monotone
    mags = np.abs(spec.terms(10))
    assert np.all(mags[1:] >= mags[:-1])


def test_conjugate_round_trip():
    spec = explicit([1 + 2j, 3.0, -1j])
    np.testing.assert_allclose(
        spec.conjugate().terms(3), np.conj(spec.terms(3))
    )
    np.testing.assert_allclose(
        geometric(1j).conjugate().terms(4), np.conj(geometric(1j).terms(4))
    )


def test_check_emitted_catches_wrong_flags():
    from dataclasses import replace

    lying = replace(explicit([1.0, 1j]), is_real=True)
    with pytest.raises(ValueError, match="declared real"):
        lying.check_emitted(2)
    lying = replace(explicit([2.0, 1.0]), abs_monotone=True)
    with pytest.raises(ValueError, match="monotone"):
        lying.check_emitted(2)


def test_check_emitted_accepts_valid_flags():
    poly(1.0).check_emitted(64)
    explicit([1 + 1j, 2.0]).check_emitted(2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("poly:0", [1, 1, 1]),
        ("poly:1", [0, 1, 2]),
        ("harmonic", [0, 1, 0.5]),
        ("geometric:0.5", [1, 0.5, 0.25]),
        ("affine:2,1", [1, 3, 5]),
        ("sqrt-poly:2", [0, 1, 2]),
        ("list:1,2,3", [1, 2, 3]),
    ],
)
def test_parse_spec_round_trips(text, expected):
    np.testing.assert_allclose(parse_spec(text).terms(3), expected, atol=1e-15)


def test_parse_spec_complex_list():
    spec = parse_spec("list:1+2j,3,-1j")
    np.testing.assert_allclose(spec.terms(3), [1 + 2j, 3, -1j])
    assert not spec.is_real


@pytest.mark.parametrize("text", ["poly", "nope:1", "affine:1", "poly:x", ""])
def test_parse_spec_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "poly:inf",
        "sqrt-poly:nan",
        "geometric:nan",
        "geometric:1+infj",
        "affine:1,-inf",
        "list:1,nan,2",
    ],
)
def test_parse_spec_rejects_non_finite_parameters(text):
    with pytest.raises(ValueError, match="non-finite"):
        parse_spec(text)


def test_labels_are_canonical():
    assert parse_spec("poly:1").label == "poly:1"
    assert parse_spec("harmonic").label == "harmonic"
    assert parse_spec("sqrt-poly:1").label == "sqrt-poly:1"
    assert parse_spec("geometric:0.5").label == "geometric:0.5"
