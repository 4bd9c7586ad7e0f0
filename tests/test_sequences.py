import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
from oracles import conjugate, mp_log_abs_affine, sequence_term
from rieszops import build_bundle, build_ladder, from_generator, sequences
from rieszops.sequences import (
    MAX_SHARED_COUNT,
    IndexGrid,
    affine,
    explicit,
    geometric,
    harmonic,
    parse_spec,
    poly,
    sqrt_poly,
)


def test_poly_zero_power_is_all_ones():
    np.testing.assert_allclose(poly(0.0).terms(5), np.ones(5))


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


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("text", _TERM_SPECS)
@pytest.mark.parametrize("count", [0, 1, 3, 64])
def test_terms_match_term_by_term(text, conjugated, count):
    spec = parse_spec(text)
    spec = conjugate(spec) if conjugated else spec
    got = spec.terms(count)
    want = np.array([sequence_term(spec, k) for k in range(count)], dtype=complex)
    assert got.dtype == np.complex128 and got.shape == (count,)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_terms_of_limited_list_reject_one_past_the_end():
    spec = parse_spec("list:1,2j,3")
    assert spec.terms(3).shape == (3,)
    for limited in (spec, conjugate(spec)):
        with pytest.raises(ValueError, match="emits only"):
            limited.terms(len(limited.values) + 1)


def test_log_abs_terms_take_their_length_from_one_place(monkeypatch):
    """count alone sets the length, whatever the shared index table holds:
    a shorter table is grown to count, a longer one sliced."""
    monkeypatch.setattr(sequences, "_n_table", None)
    monkeypatch.setattr(sequences, "_log_n_table", None)
    spec = poly(1.0)
    expected = np.log(np.arange(16.0), where=np.arange(16) > 0, out=np.full(16, -np.inf))
    np.testing.assert_array_equal(spec.log_abs_terms(8), expected[:8])
    assert len(sequences._n_table) == 8
    np.testing.assert_array_equal(spec.log_abs_terms(16), expected)
    np.testing.assert_array_equal(spec.log_abs_terms(8), expected[:8])
    assert len(sequences._n_table) == 16


@pytest.mark.parametrize(
    "text",
    ["affine:1e305,0", "affine:1e305,-3e305", "affine:-1e305,1e300", "affine:1e305+1e305j,2"],
)
def test_log_abs_terms_of_an_overflowing_affine_spec(text):
    """Past the index where a n + b overflows, log |a n + b| is still finite
    and matches a 50-digit evaluation to 1e-15; before it, every term keeps
    the bits of log |a n + b| taken as emitted.  terms() still refuses."""
    spec, count = parse_spec(text), 4096
    with np.errstate(over="ignore"):
        emitted = np.abs(spec.slope * np.arange(count) + spec.offset)
    first = int(np.flatnonzero(~np.isfinite(emitted))[0])
    assert 1000 < first < count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spec.log_abs_terms(count)
    assert np.isfinite(got[first:]).all()
    with np.errstate(divide="ignore"):  # an exact zero term logs to -inf
        np.testing.assert_array_equal(got[:first], np.log(emitted[:first]))
    indices = [*range(first, first + 64), *range(first + 64, count, 97), count - 1]
    np.testing.assert_allclose(
        got[indices], mp_log_abs_affine(spec.slope, spec.offset, indices), rtol=1e-15, atol=0
    )
    with pytest.raises(ValueError, match="is not finite"):
        spec.terms(count)


def test_affine_log_terms_that_stay_infinite_are_refused():
    # |b| alone overflows and a = 0: no finite form of log |a n + b| is tried
    with pytest.raises(ValueError, match="term 0 is not finite"):
        parse_spec("affine:0,1.5e308+1.5e308j").log_abs_terms(64)


@pytest.mark.parametrize("spec,count,first", [
    (poly(1e308), 64, 7),
    (geometric(1.7e308 + 1.7e308j), 4, 1),
    (explicit([1, 1.7e308 + 1.7e308j, 0, 2]), 4, 1),
], ids=["poly", "geometric", "list"])
def test_log_terms_that_overflow_are_refused(spec, count, first):
    # p log n, log |r| or log |s_n| past the float range, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"term {first} is not finite"):
            spec.log_abs_terms(count)

def test_poly_terms_never_raise_zero_to_a_negative_power():
    with np.errstate(divide="raise", invalid="raise"):
        assert harmonic().terms(3)[0] == 0.0
        assert poly(-2.5).terms(1)[0] == 0.0


def test_explicit_length_enforced():
    spec = explicit([1.0, 2.0])
    assert len(spec.values) == 2
    with pytest.raises(ValueError, match="emits only"):
        spec.terms(3)


def _is_real(spec, dim=8):
    """The realness flag the bundle reads from dim emitted terms."""
    pair = from_generator(np.eye(dim, dtype=complex))
    return build_bundle(pair, spec.terms(dim)).is_real


def _abs_monotone(spec, dim=8):
    """The |.|-monotonicity flag the ladder reads from dim emitted terms."""
    pair = from_generator(np.eye(dim, dtype=complex))
    return build_ladder(pair, spec.terms(dim)).abs_monotone


def test_is_real_flags():
    assert _is_real(poly(1.0))
    assert not _is_real(geometric(1j))
    assert not _is_real(explicit([1.0, 1j]), 2)
    assert _is_real(geometric(-2.0))


def test_abs_monotone_flags():
    assert _abs_monotone(poly(1.0))
    assert not _abs_monotone(harmonic())  # 0, 1, 1/2, ... dips after n = 1
    assert _abs_monotone(geometric(2.0))
    assert not _abs_monotone(geometric(0.5))
    assert _abs_monotone(affine(1.0, 0.0))
    assert not _abs_monotone(affine(-1.0, 2.0))  # |2 - n| dips at n = 2
    assert _abs_monotone(explicit([0.0, 1.0, 2.0]), 3)
    assert not _abs_monotone(explicit([0.0, 2.0, 1.0]), 3)
    assert not _abs_monotone(explicit([2.0, 1.0, 3.0]), 3)  # dips at n = 1 only


def test_abs_monotone_complex_affine():
    # |1 + i n| = sqrt(1 + n^2) grows although neither part alone decides it
    spec = affine(1j, 1.0)
    assert _abs_monotone(spec, 10)
    mags = np.abs(spec.terms(10))
    assert np.all(mags[1:] >= mags[:-1])


def test_conjugate_round_trip():
    spec = explicit([1 + 2j, 3.0, -1j])
    np.testing.assert_allclose(
        conjugate(spec).terms(3), np.conj(spec.terms(3))
    )
    np.testing.assert_allclose(
        conjugate(geometric(1j)).terms(4), np.conj(geometric(1j).terms(4))
    )


#: (every term real, |.| nondecreasing) over the first 64 terms of each spec;
#: conjugation keeps both
_TERM_FLAGS = dict(
    zip(_TERM_SPECS, [(True, True), (True, True), (True, False), (True, True),
                      (True, True), (False, False), (True, False), (False, False)])
)


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("text", _TERM_SPECS)
def test_declared_flags_match_emitted_terms(text, conjugated):
    """The flags the bundle (is_real) and the ladder (abs_monotone) declare,
    read from 64 emitted terms, are what those terms show."""
    spec = parse_spec(text)
    spec = conjugate(spec) if conjugated else spec
    is_real, monotone = _TERM_FLAGS[text]
    assert _is_real(spec, 64) == is_real
    assert _abs_monotone(spec, 64) == monotone


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
    assert not _is_real(spec, 3)


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
    # list labels are formatted when read, with the same text
    assert explicit([1, 2 + 1j]).label == "list:1,2+1j"
    assert conjugate(explicit([1, 2 + 1j])).label == "conj(list:1,2+1j)"
    assert explicit([1, 2 + 1j], label="mine").label == "mine"
    assert parse_spec("list:1,2+1j").label == "list:1,2+1j"


@pytest.mark.parametrize(
    "text", ["geometric:0.9999999", "poly:1.00000001", "affine:1234567,0.1"]
)
def test_labels_keep_every_digit(text):
    spec = parse_spec(text)
    assert spec.label == text
    assert parse_spec(spec.label) == spec


_REALS = st.floats(allow_nan=False, allow_infinity=False)
_COMPLEXES = st.complex_numbers(allow_nan=False, allow_infinity=False)
_SPECS = st.one_of(
    st.builds(poly, _REALS),
    st.builds(sqrt_poly, _REALS),
    st.builds(geometric, _COMPLEXES),
    st.builds(affine, _COMPLEXES, _COMPLEXES),
    st.builds(explicit, st.lists(_COMPLEXES, min_size=1, max_size=4)),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_SPECS)
def test_labels_parse_back_to_their_spec(spec):
    assert parse_spec(spec.label) == spec


#: in a fresh interpreter: whether importing the package and its CLI built
#: the shared index table or its log
TABLE_SCRIPT = """
import rieszops, rieszops.cli
from rieszops import sequences
print(sequences._n_table is None, sequences._log_n_table is None)
"""


class TestIndexTable:
    """IndexGrid hands out read-only slices of one process-wide table of n
    and log n, grown to the longest grid asked for, up to MAX_SHARED_COUNT."""

    def test_slices_equal_fresh_arrays_bit_for_bit(self):
        IndexGrid(MAX_SHARED_COUNT).log_n  # the longest table there is
        for count in (0, 1, 64, 4095, 4096, 5000, 16384, 65537, MAX_SHARED_COUNT):
            grid = IndexGrid(count)
            with np.errstate(divide="ignore"):
                log_n = np.log(np.arange(count, dtype=float))
            assert grid.n.tobytes() == np.arange(count, dtype=float).tobytes()
            assert grid.log_n.tobytes() == log_n.tobytes()

    def test_a_count_already_reached_shares_the_table(self, monkeypatch):
        monkeypatch.setattr(sequences, "_n_table", None)
        monkeypatch.setattr(sequences, "_log_n_table", None)
        longest = IndexGrid(8192)
        assert longest.n.base is sequences._n_table and sequences._log_n_table is None
        for count in (64, 4096, 8192):
            grid = IndexGrid(count)
            assert grid.n.base is sequences._n_table
            assert grid.log_n.base is sequences._log_n_table
        assert len(sequences._n_table) == len(sequences._log_n_table) == 8192
        IndexGrid(16384)  # grows the table; its log is built on the next read
        assert len(sequences._n_table) == 16384 and sequences._log_n_table is None

    def test_arrays_are_read_only(self):
        for count in (64, MAX_SHARED_COUNT + 1):
            grid = IndexGrid(count)
            for array in (grid.n, grid.log_n):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    @pytest.mark.parametrize(
        "text", ["poly:2", "harmonic", "geometric:0.5", "affine:1,2", "list:1,2,3,4"]
    )
    def test_log_abs_terms_are_fresh_and_writeable(self, text):
        spec = parse_spec(text)
        first = spec.log_abs_terms(4)
        assert first.flags.writeable and first.flags.owndata
        first[:] = 7.0
        again = spec.log_abs_terms(4)
        assert again is not first and not (again == 7.0).any()
        assert spec.terms(4).flags.writeable

    def test_a_count_past_the_cap_retains_nothing(self, monkeypatch):
        monkeypatch.setattr(sequences, "_n_table", None)
        monkeypatch.setattr(sequences, "_log_n_table", None)
        IndexGrid(64).log_n
        kept, kept_log = sequences._n_table, sequences._log_n_table
        grid = IndexGrid(MAX_SHARED_COUNT + 1)
        assert grid.log_n[-1] == np.log(MAX_SHARED_COUNT)
        assert sequences._n_table is kept and sequences._log_n_table is kept_log
        assert len(kept) == len(kept_log) == 64

    def test_importing_the_package_builds_no_table(self):
        done = subprocess.run(
            [sys.executable, "-c", TABLE_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env=cli_env(),
        )
        assert done.stdout.split() == ["True", "True"]
