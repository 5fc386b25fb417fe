import copy
import operator
import pickle
from fractions import Fraction
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncdiffop.scalars import _RAT, _SMALL, NEG_ONE, ONE, SMALL, ZERO, Scalar, ScalarParseError, _parse_rat, sc

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))
scalars = st.builds(lambda a, b: Scalar(a, b), rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars)
def test_inverses(a):
    if a:
        assert a * (ONE / a) == ONE


@given(scalars, scalars)
def test_conjugation_is_ring_antiautomorphism(a, b):
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@given(rationals)
def test_conjugation_fixes_rationals(r):
    assert Scalar(r).conj() == Scalar(r)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", Scalar(3)),
        ("-1/2", Scalar(Fraction(-1, 2))),
        ("1/2+1/3i", Scalar(Fraction(1, 2), Fraction(1, 3))),
        ("1/2-1/3i", Scalar(Fraction(1, 2), Fraction(-1, 3))),
        ("i", Scalar(0, 1)),
        ("-i", Scalar(0, -1)),
        ("2i", Scalar(0, 2)),
        ("0", ZERO),
    ],
)
def test_parse(text, expected):
    assert sc(text) == expected


@given(scalars)
def test_str_roundtrip(a):
    assert sc(str(a)) == a


def test_parse_rejects_garbage():
    with pytest.raises(ScalarParseError):
        sc("1/2 + bogus")
    with pytest.raises(ScalarParseError):
        sc("")


def test_complex_division():
    a = sc("1+2i")
    b = sc("3-1i")
    assert a / b * b == a
    with pytest.raises(ZeroDivisionError):
        a / ZERO


# construction is canonical: a zero built in any way is the ZERO object itself, so a
# truth test is an identity test
ZEROS = [Scalar(0), sc("0/5"), Scalar(0, 0), ONE - ONE]


@pytest.mark.parametrize("zero", ZEROS, ids=["Scalar(0)", "0/5", "Scalar(0,0)", "ONE-ONE"])
def test_every_zero_is_the_zero_singleton(zero):
    assert zero is ZERO
    assert not zero
    assert zero == ZERO


def test_nonzero_is_truthy():
    assert ONE
    assert sc("i")
    assert sc("-1/3")
    assert not ZERO


# -- normal form of the parts: int when integral, the rational type otherwise --------


def _parts(x):
    return (x.re, x.im)


def _assert_normal(x):
    for p in _parts(x):
        assert not isinstance(p, float)
        if Fraction(p).denominator == 1:
            assert type(p) is int
        else:
            assert type(p) is _RAT


def test_integral_results_carry_int_parts():
    for x in (sc("1/2") * 2, sc("4/2"), Scalar(Fraction(6, 3)), sc("1/3") + sc("2/3"), sc("3i") / 3, -sc("-4/2")):
        _assert_normal(x)
        assert all(type(p) is int for p in _parts(x))
    assert (sc("1/2") * 2).re == 1 and sc("4/2").re == 2


def test_non_integral_results_keep_rational_type():
    for x in (sc("1/2"), sc(1) / 3, sc("1/4") + 1, sc("2/3") * sc("1/2"), sc("1/2-1/3i")):
        _assert_normal(x)
        assert type(x.re) is _RAT
    assert type(sc("1/2i").im) is _RAT


def test_division_of_ints_is_exact():
    q = sc(3) / sc(2)
    assert q == sc("3/2")
    assert str(q) == "3/2"
    _assert_normal(q)
    for x in (sc(1) / sc(3), sc(4) / sc(2), sc(1) / sc("1+1i"), sc(2).inv(), 5 / sc(7)):
        _assert_normal(x)
    assert sc(1) / sc(3) * 3 == ONE


def test_float_parts_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 2.0)


def test_int_and_integral_rational_agree():
    a, b = Scalar(2), Scalar(Fraction(4, 2))
    assert type(b.re) is int and _parts(a) == _parts(b)
    assert a == b and b == 2
    assert hash(a) == hash(b) == hash(Scalar(2, 0))
    assert str(a) == str(b) == "2"
    assert str(Scalar(Fraction(-6, 3), Fraction(8, 4))) == str(Scalar(-2, 2)) == "-2+2i"
    assert len({a, b, sc("2"), sc("10/5")}) == 1


integral = st.builds(Fraction, st.integers(-50, 50))
parts = st.one_of(integral, rationals)


def _oracle(op, x, y):
    a, b = x
    c, d = y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@given(parts, parts, parts, parts, st.booleans(), st.sampled_from("+-*/"))
def test_arithmetic_matches_fraction_oracle(a, b, c, d, gaussian, op):
    if not gaussian:
        b = d = Fraction(0)
    if op == "/" and not c and not d:
        return
    x, y = Scalar(a, b), Scalar(c, d)
    got = _BINARY[op](x, y)
    re_, im_ = _oracle(op, (a, b), (c, d))
    _assert_normal(got)
    assert (Fraction(got.re), Fraction(got.im)) == (re_, im_)
    assert got == Scalar(re_, im_)
    assert str(got) == str(Scalar(re_, im_))


@given(st.one_of(st.integers(-10**6, 10**6), rationals))
def test_real_scalar_equals_and_hashes_like_its_rational(x):
    s = Scalar(x)
    for other in (x, Fraction(x), _RAT(x)):
        assert s == other and other == s
        assert not s != other
        assert hash(s) == hash(other)
    assert s != x + 1 and s != Fraction(x) + Fraction(1, 3)
    assert Scalar(x, 1) != x and Scalar(x, 1) != Fraction(x)
    assert len({s, Fraction(x), x, sc(str(s))}) == 1


# -- the literal parser against a Fraction oracle ------------------------------------


def _fraction_oracle(text):
    """The literal rule as ``Fraction(str)`` reads it, in the int/_RAT normal form."""
    text = text.lstrip("+")
    if not re.match(r"^[+-]?\d+(?:/\d+)?$", text):
        raise ScalarParseError(f"bad rational {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in {text!r}") from None
    return int(value) if value.denominator == 1 else value


def _outcome(parse, text):
    try:
        return parse(text), None
    except ScalarParseError as err:
        return None, str(err)


_digits = st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 10**20))
rational_literals = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "+", "-", "++", "+-", "-+", "--"]),
    _digits,
    st.none() | _digits | st.sampled_from(["0", "00"]),
)
non_literals = st.text(alphabet="0123456789+-/ .eE_xi", max_size=8)


@given(rational_literals | non_literals)
def test_parse_rat_matches_fraction_oracle(text):
    got, got_err = _outcome(_parse_rat, text)
    want, want_err = _outcome(_fraction_oracle, text)
    assert got_err == want_err
    if want_err is None:
        assert got == want
        assert type(got) is (int if type(want) is int else _RAT)


@given(rational_literals, st.lists(st.sampled_from([" ", "\t", "\n"]), max_size=3), st.randoms())
def test_from_str_ignores_inner_whitespace(text, spaces, rnd):
    for space in spaces:
        at = rnd.randint(0, len(text))
        text = text[:at] + space + text[at:]
    got, got_err = _outcome(sc, text)
    want, want_err = _outcome(_fraction_oracle, "".join(text.split()))
    assert got_err == want_err
    if want_err is None:
        assert got == Scalar(want)
        _assert_normal(got)


# -- canonical construction against the Fraction oracle --------------------------------


def _oracle_str(re_, im_):
    if not im_:
        return str(re_)
    if not re_:
        return f"{im_}i"
    return f"{re_}{im_}i" if im_ < 0 else f"{re_}+{im_}i"


def _check_canonical(x, value):
    """x against its value, a pair of Fractions: str, ==, hash, and the shared objects."""
    re_, im_ = value
    assert (Fraction(x.re), Fraction(x.im)) == value
    _assert_normal(x)
    assert str(x) == _oracle_str(re_, im_)
    assert hash(x) == (hash((re_, im_)) if im_ else hash(re_))
    assert (x == re_) is (not im_)
    assert x == Scalar(re_, im_) and not x != Scalar(re_, im_)
    assert (x is ZERO) is (value == (0, 0)) is (not x)
    assert (x is ONE) is (value == (1, 0)) and (x is NEG_ONE) is (value == (-1, 0))


_CONSTRUCTORS = {
    "Scalar": lambda re_, im_: Scalar(re_, im_),
    "Scalar-int-parts": lambda re_, im_: Scalar(*(int(p) if p.denominator == 1 else p for p in (re_, im_))),
    "sc-str": lambda re_, im_: sc(_oracle_str(re_, im_)),
    "from_str": lambda re_, im_: Scalar.from_str(_oracle_str(re_, im_)),
    "sc-rational": lambda re_, im_: sc(re_) + sc(im_) * sc("i"),
    "pickle": lambda re_, im_: pickle.loads(pickle.dumps(Scalar(re_, im_))),
}

_UNARY = {
    "neg": (operator.neg, lambda a, b: (-a, -b)),
    "conj": (Scalar.conj, lambda a, b: (a, -b)),
    "inv": (Scalar.inv, lambda a, b: _oracle("/", (Fraction(1), Fraction(0)), (a, b))),
}

# the integral parts come from a range that straddles the interned integers (|n| <= SMALL)
small_parts = st.one_of(
    st.builds(Fraction, st.integers(-3, 3)), st.builds(Fraction, st.integers(-SMALL - 50, SMALL + 50)), rationals
)


@given(*[small_parts] * 4, st.booleans(), *[st.sampled_from(sorted(_CONSTRUCTORS))] * 2)
def test_every_construction_path_is_canonical(a, b, c, d, gaussian, make_x, make_y):
    """Every constructor, operator and mixed int operand gives the oracle's str, ==
    and hash, and a value is zero (or 1, or -1) exactly when it is the shared object."""
    if not gaussian:
        b = d = Fraction(0)
    x, y = _CONSTRUCTORS[make_x](a, b), _CONSTRUCTORS[make_y](c, d)
    _check_canonical(x, (a, b))
    _check_canonical(y, (c, d))
    for name, (op, oracle) in _UNARY.items():
        if name == "inv" and not (a or b):
            continue
        _check_canonical(op(x), oracle(a, b))
    for sym, op in _BINARY.items():
        if sym == "/" and not (c or d):
            continue
        _check_canonical(op(x, y), _oracle(sym, (a, b), (c, d)))
    if c.denominator == 1 and not d:
        n = int(c)
        for sym, op in _BINARY.items():
            if sym == "/" and not n:
                continue
            _check_canonical(op(x, n), _oracle(sym, (a, b), (c, d)))
            if not (sym == "/" and not (a or b)):
                _check_canonical(op(n, x), _oracle(sym, (c, d), (a, b)))


@pytest.mark.parametrize("x", [ZERO, ONE, sc(5), sc("1/2"), sc("1/2+i")], ids=["0", "1", "5", "1/2", "1/2+i"])
def test_copy_and_pickle_keep_the_shared_objects(x):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and str(twin) == str(x) and hash(twin) == hash(x)
    assert copy.copy(x) is x and copy.deepcopy([x])[0] is x
    assert (ZERO.re, ZERO.im, ONE.re, ONE.im, NEG_ONE.re, NEG_ONE.im) == (0, 0, 1, 0, -1, 0)
    assert pickle.loads(pickle.dumps(ZERO)) is ZERO and pickle.loads(pickle.dumps(NEG_ONE)) is NEG_ONE


def test_negating_a_shared_integer_gives_the_shared_object():
    for k in range(-SMALL, SMALL + 1):
        assert -_SMALL[k] is _SMALL[-k]
        assert -Scalar(k) is _SMALL[-k] and -sc(str(k)) is _SMALL[-k]


@pytest.mark.parametrize(
    "re_,im_", [(SMALL + 1, 0), (-SMALL - 1, 0), (Fraction(1, 2), 0), (Fraction(-7, 3), 0), (2, -1), (Fraction(1, 2), 1)]
)
def test_negation_outside_the_shared_integers_constructs_the_value(re_, im_):
    x = Scalar(re_, im_)
    neg = -x
    assert neg == Scalar(-re_, -im_) and str(neg) == str(Scalar(-re_, -im_))
    assert hash(neg) == hash(Scalar(-re_, -im_))
    assert type(neg.re) is (int if Fraction(re_).denominator == 1 else _RAT)
    assert -neg == x
