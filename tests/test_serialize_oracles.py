"""The integer symbol loader and dumper against the ``GaussRational`` ones
they replaced.

``serialize.symbol_from_json`` reads each ``"p/q"`` part as an int pair
(``scalars._rational_parts``) and builds the tensor cells with one ``lcm``;
``serialize.symbol_to_json`` formats every part straight from
``cells[I, J] / (den mult(I) mult(J))``.  The oracles here are the code
they replaced, kept on purpose: a ``Fraction`` per part, a
``GaussRational`` per entry and per duplicate sum on the way in, and the
``entries`` view with ``format_rational`` of each ``Fraction`` on the way
out.  Random payloads, malformed ones included, must load to equal
tensors at ``cells``/``den`` or be refused with the same exception type
and message, and every loaded tensor must dump to the same bytes.  Two
deliberate differences: an entry without ``"I"`` or ``"J"``, a bare
``KeyError`` in the oracle, is a ``ValueError`` that names the field; and a
part of more digits than the interpreter converts is refused with the digit
count instead of CPython's ``set_int_max_str_digits`` hint.  Both refuse
a decimal that ``Fraction`` reads when its exponent is over that limit in
size, before ``Fraction`` builds ``10**exponent``; the random texts can
draw one, such as ``1e999999``.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpstar.scalars import GaussRational, _check_digits, parse_rational
from cpstar.serialize import canonical_dumps, symbol_from_json, symbol_to_json
from cpstar.symbols import SymbolTensor


def _exponent_over_limit(text):
    """The decimal exponent of ``text`` when ``Fraction`` reads ``text`` and
    the exponent is over the interpreter's digit limit in size, else None:
    ``Fraction`` reads the text exactly when it reads it with the exponent
    set to zero and the exponent is an int literal without padding."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    head, e, exponent = text.strip().replace("E", "e").rpartition("e")
    if not (limit and e) or exponent != exponent.strip():
        return None
    try:
        value = int(exponent)
        Fraction(head + "e0")
    except ValueError:
        return None
    return value if abs(value) > limit else None


def parse_rational_oracle(text):
    if not isinstance(text, str):
        raise ValueError(f'rational must be a "p/q" string, got {text!r}')
    exponent = _exponent_over_limit(text)
    if exponent is not None:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"rational with a decimal exponent of {exponent}, beyond the limit of {limit}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


def format_rational_oracle(value):
    value = Fraction(value)
    _check_digits(value.numerator)
    _check_digits(value.denominator)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _json_int(value, what):
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def symbol_from_json_oracle(data):
    n = _json_int(data["n"], 'symbol "n"')
    k = _json_int(data["k"], 'symbol "k"')
    accum = {}
    for entry in data.get("entries", ()):
        key = (
            tuple(sorted(_json_int(a, 'index letter in "I"') for a in entry["I"])),
            tuple(sorted(_json_int(a, 'index letter in "J"') for a in entry["J"])),
        )
        value = GaussRational(
            parse_rational_oracle(entry.get("re", "0")), parse_rational_oracle(entry.get("im", "0"))
        )
        accum[key] = accum.get(key, GaussRational(0)) + value
    return SymbolTensor(n, k, {key: v for key, v in accum.items() if v})


def symbol_to_json_oracle(tensor):
    entries = []
    for (left, right), value in sorted(tensor.entries.items()):
        entries.append(
            {
                "I": list(left),
                "J": list(right),
                "re": format_rational_oracle(value.re),
                "im": format_rational_oracle(value.im),
            }
        )
    return {"n": tensor.n, "k": tensor.k, "entries": entries}


def outcome(function, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return "ok", function(*args)
    except Exception as exc:  # the comparison covers every exception alike
        return type(exc), str(exc)


# -- strategies ------------------------------------------------------------

plain_parts = st.builds(
    lambda p, q: f"{p}/{q}" if q != 1 else str(p),
    st.integers(-40, 40),
    st.integers(1, 12),
)
lenient_parts = st.one_of(
    st.builds(lambda p, q, m: f"{p * m}/{q * m}", st.integers(-9, 9), st.integers(1, 9), st.integers(2, 4)),
    st.builds(lambda text, pad: f"{pad}{text}{pad[::-1]}", plain_parts, st.sampled_from([" ", "\t", "\n ", " "])),
    st.builds(lambda p, d: f"{p}.{d}", st.integers(-9, 9), st.integers(0, 99)),
    st.builds(lambda p: f"+{p}", st.integers(0, 99)),
    st.sampled_from(["-0", "0", "+0/3", "1_0", "1_000/2_0", ".5", "5.", "-.25", "3e-1", "1E2", "2/4", "١٢", "１/２"]),
)
refused_parts = st.one_of(
    st.sampled_from(["1/0", "-3/0_0", "abc", "", " ", "1 /2", "1/ 2", "1/2/3", "1/-2", "inf", "nan", "0x1", "1__0", "--1", "½"]),
    st.integers(-3, 3),
    st.sampled_from([None, True, 1.5, [], {}]),
)
random_texts = st.text(alphabet="0123456789/._+-eE \t١", max_size=8)
parts = st.one_of(plain_parts, plain_parts, lenient_parts, refused_parts, random_texts)


@st.composite
def symbol_payloads(draw):
    valid = draw(st.booleans())
    n = draw(st.integers(0, 3)) if valid or draw(st.booleans()) else draw(st.sampled_from([-1, 1.5, True, "2"]))
    k = draw(st.integers(0, 3)) if valid or draw(st.booleans()) else draw(st.sampled_from([-1, 2.0, None]))
    top = n if type(n) is int and n >= 0 else 2
    degree = k if type(k) is int and k >= 0 else 1
    letters = st.integers(0, top) if valid else st.one_of(st.integers(-1, top + 1), st.just(0.0))
    lengths = st.just(degree) if valid else st.sampled_from([degree, degree, degree + 1, max(degree - 1, 0)])
    index = lengths.flatmap(lambda size: st.lists(letters, min_size=size, max_size=size))
    # a small pool of index pairs makes repeated keys common
    pool = draw(st.lists(st.tuples(index, index), min_size=1, max_size=4))
    part = plain_parts | lenient_parts if valid else parts
    entries = []
    for _ in range(draw(st.integers(0, 7))):
        left, right = draw(st.sampled_from(pool))
        entry = {"I": draw(st.permutations(left)), "J": draw(st.permutations(right))}
        for name in ("re", "im"):
            if draw(st.integers(0, 3)):
                entry[name] = draw(part)
        if not valid and not draw(st.integers(0, 9)):
            entry.pop(draw(st.sampled_from(["I", "J"])))
        entries.append(entry)
    if entries and draw(st.booleans()):
        # a copy of an entry with its parts negated cancels it
        twin = dict(draw(st.sampled_from(entries)))
        for name in ("re", "im"):
            if name in twin and isinstance(twin[name], str):
                try:
                    twin[name] = str(-Fraction(twin[name].strip()))
                except (ValueError, ZeroDivisionError):
                    pass
        entries.append(twin)
    return {"n": n, "k": k, "entries": entries}


# -- tests -----------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(parts)
@example("1e99999999")
@example(" -.5E-99_999_999")
@example("E99999999")
@example("1e 99999999")
def test_rational_parser_matches_fraction(text):
    assert outcome(parse_rational, text) == outcome(parse_rational_oracle, text)


@settings(max_examples=300, deadline=None)
@given(symbol_payloads())
def test_loader_and_dumper_match_the_gauss_rational_oracles(payload):
    payload = json.loads(json.dumps(payload))
    got = outcome(symbol_from_json, payload)
    expected = outcome(symbol_from_json_oracle, payload)
    if got[0] != "ok" or expected[0] != "ok":
        if expected[0] is KeyError:  # a bare KeyError in the oracle; the loader names the field
            assert got == (ValueError, f'symbol entry is missing "{expected[1][1:-1]}"')
        else:
            assert got == expected
        return
    tensor, reference = got[1], expected[1]
    assert (tensor.n, tensor.k, tensor.den, tensor.cells) == (reference.n, reference.k, reference.den, reference.cells)
    assert canonical_dumps(symbol_to_json(tensor)) == canonical_dumps(symbol_to_json_oracle(reference))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(-10**60, 10**60), st.integers(-10**60, 10**60), st.integers(1, 10**40)),
        max_size=6,
    ),
)
def test_dumper_matches_the_oracle_on_large_parts(n, raw):
    entries = {
        (tuple(sorted(key[:1])), tuple(sorted(key[1:]))): GaussRational(Fraction(a, d), Fraction(b, d))
        for key, (a, b, d) in raw.items()
        if max(key) <= n
    }
    tensor = SymbolTensor(n, 1, entries)
    assert canonical_dumps(symbol_to_json(tensor)) == canonical_dumps(symbol_to_json_oracle(tensor))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_over_limit_parts_are_refused_alike():
    limit = sys.get_int_max_str_digits()
    huge = 10**limit + 7
    for value in (Fraction(huge, 3), Fraction(3, huge), Fraction(-huge, 1), Fraction(1, 3) + 10**(limit - 1)):
        for part in ("re", "im"):
            tensor = SymbolTensor(1, 1, {((0,), (1,)): GaussRational(**{part: value}), ((0,), (0,)): 1})
            got = outcome(symbol_to_json, tensor)
            assert got == outcome(symbol_to_json_oracle, tensor)
            if value.numerator == -huge or value.denominator == huge:
                assert got[0] is ValueError and "over the limit" in got[1]
    text = "7" * (limit + 1)
    for spelled in (text, "-" + text, f"1/{text}", f"{text}/0", f" {text} ", f"{text}.5"):
        payload = {"n": 1, "k": 1, "entries": [{"I": [0], "J": [1], "re": spelled}]}
        assert outcome(symbol_from_json_oracle, payload)[0] is ValueError
        message = f"rational with a number of {limit + 1} digits, over the limit of {limit}"
        assert outcome(symbol_from_json, payload) == (ValueError, message)
