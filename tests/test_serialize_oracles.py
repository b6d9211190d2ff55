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

The second oracle is the int loader that the table-driven one replaced,
kept on purpose as well: it sorts the letters of each index while it reads
them, adds up repeated pairs in a dict keyed by the sorted pair, and then
checks each sum in ``_checked_cells_oracle`` (lengths, letter range,
sortedness, width) before ``_over_lcm_oracle`` brings the cells over one
denominator and ``_normalised_oracle`` makes it least.  The loader now
hands the letters over unsorted, and ``symbols._checked_cells`` reads both
tuples of an entry in one table lookup and merges the lcm, scale and gcd
passes; on every payload it must give the same tensor, or the same
exception type and message, as this oracle.  The public constructor runs
the same ``_checked_cells``, and is compared with the old constructor the
same way, with one deliberate difference: a nonzero entry whose letters
are not all ints (a bool or a float) is refused, where the old
constructor took a bool as an int and refused a float with a
``TypeError`` only when that tuple had not been ranked before.
"""

import json
import sys
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpstar import symbols
from cpstar.multiindex import MAX_WIDTH_BITS, multiplicity
from cpstar.scalars import GaussRational, _check_digits, _rational_parts, _required, _shaped, parse_rational, to_gauss
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


def _over_lcm_oracle(parts):
    den = lcm(*(b for _, b, _, _, _ in parts.values()), *(d for _, _, _, d, _ in parts.values()))
    if den == 1:
        return 1, {key: (a * w, c * w) for key, (a, _, c, _, w) in parts.items()}
    cells = {}
    for key, (a, b, c, d, w) in parts.items():
        w *= den
        cells[key] = (a * (w // b), c * (w // d))
    return _normalised_oracle(den, cells)


def _normalised_oracle(den, cells):
    out = {}
    common = den
    for key, (re, im) in cells.items():
        if re or im:
            out[key] = (re, im)
            if common != 1:
                common = gcd(common, re, im)
    if not out:
        return 1, out
    if common == 1:
        return den, out
    return den // common, {key: (re // common, im // common) for key, (re, im) in out.items()}


def _checked_cells_oracle(n, k, parts):
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    ranks, width = symbols._ranks(n, k), 0
    weighted = {}
    for (left, right), (a, b, c, d) in parts:
        if not (a or c):
            continue
        if len(left) != k or len(right) != k:
            raise ValueError(f"index length mismatch for degree {k}: {(left, right)}")
        ordered = tuple(sorted(left)), tuple(sorted(right))
        if k and (min(ordered[0][0], ordered[1][0]) < 0 or max(ordered[0][-1], ordered[1][-1]) > n):
            raise ValueError(f"index letter out of range for n={n}")
        key = tuple(left), tuple(right)
        if key != ordered:
            raise ValueError("entries must use sorted index representatives")
        left, right = key
        width = width or symbols._width(n, k)
        weighted[ranks[left] * width + ranks[right]] = (a, b, c, d, multiplicity(left) * multiplicity(right))
    return _over_lcm_oracle(weighted)


def int_loader_oracle(data):
    """The int loader as it was: ``(n, k, den, cells)`` of the tensor."""
    n = _json_int(_required(data, "n", "symbol"), 'symbol "n"')
    k = _json_int(_required(data, "k", "symbol"), 'symbol "k"')
    parts = {}
    for entry in _shaped(data.get("entries", []), list, 'symbol "entries"'):
        left = tuple(sorted(_json_int(a, 'index letter in "I"') for a in _required(entry, "I", "symbol entry", list)))
        right = _required(entry, "J", "symbol entry", list)
        key = (left, tuple(sorted(_json_int(a, 'index letter in "J"') for a in right)))
        a, b = _rational_parts(entry.get("re", "0"))
        c, d = _rational_parts(entry.get("im", "0"))
        if key in parts:
            a0, b0, c0, d0 = parts[key]
            a, b, c, d = a0 * b + a * b0, b0 * b, c0 * d + c * d0, d0 * d
        parts[key] = (a, b, c, d)
    return (n, k, *_checked_cells_oracle(n, k, parts.items()))


def constructor_oracle(n, k, entries):
    """The public constructor as it was: ``(n, k, den, cells)``."""
    def parts():
        for key, value in entries.items():
            p, q, m = to_gauss(value)._ints()
            yield key, (p, m, q, m)

    return (n, k, *_checked_cells_oracle(n, k, parts()))


def as_tuple(tensor):
    return tensor.n, tensor.k, tensor.den, tensor.cells


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


# -- the table-driven loader and constructor against the int oracles -------

WIDE_N = 10**6  # CP^1000000: degree 13 has W of 226 bits, degree 40 is over MAX_WIDTH_BITS
assert (comb(WIDE_N + 13, 13).bit_length() <= MAX_WIDTH_BITS < comb(WIDE_N + 40, 40).bit_length())
small_parts = st.sampled_from(["0", "0", "1", "-1", "1/2", "-1/2", "2/3", "0/3", "3/6"])


@st.composite
def edge_payloads(draw):
    """Payloads near every rule the loader keeps: letters in any order,
    repeated and cancelling pairs, bad lengths and letters, bool and float
    letters, negative sizes, parts that do not parse, and shapes on either
    side of ``MAX_WIDTH_BITS``."""
    n = draw(st.sampled_from([-1, 0, 1, 2, 3, WIDE_N]))
    k = draw(st.sampled_from([-1, 0, 1, 2, 3, 13, 40] if n == WIDE_N else [-1, 0, 1, 2, 3]))
    size = max(k, 0)
    top = min(max(n, 0), 3)
    letters = st.one_of(
        st.integers(0, top), st.integers(0, top), st.integers(0, top),
        st.sampled_from([-1, n + 1, n, True, False, 1.0, 0.5]),
    )
    lengths = st.sampled_from([size, size, size, size + 1, max(size - 1, 0)])
    index = lengths.flatmap(lambda length: st.lists(letters, min_size=length, max_size=length))
    pool = draw(st.lists(st.tuples(index, index), min_size=1, max_size=3))
    part = small_parts | st.sampled_from(["abc", "1/0"]) if draw(st.integers(0, 4)) == 0 else small_parts
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        left, right = draw(st.sampled_from(pool))
        entry = {"I": draw(st.permutations(left)), "J": draw(st.permutations(right))}
        for name in ("re", "im"):
            if draw(st.booleans()):
                entry[name] = draw(part)
        entries.append(entry)
        if draw(st.integers(0, 2)) == 0:
            # the same pair, letters reordered, with the parts negated
            twin = {"I": draw(st.permutations(left)), "J": draw(st.permutations(right))}
            for name in ("re", "im"):
                if name in entry and entry[name] not in ("abc", "1/0"):
                    twin[name] = str(-Fraction(entry[name]))
            entries.append(twin)
    return {"n": n, "k": k, "entries": entries}


def loaded(payload):
    return as_tuple(symbol_from_json(payload))


def constructed(n, k, entries):
    return as_tuple(SymbolTensor(n, k, entries))


@settings(max_examples=500, deadline=None)
@given(st.one_of(symbol_payloads(), edge_payloads()))
def test_loader_matches_the_int_loader_oracle(payload):
    payload = json.loads(json.dumps(payload))
    assert outcome(loaded, payload) == outcome(int_loader_oracle, payload)


def int_entries(payload):
    """The entries of a payload whose letters are all ints, as a
    constructor mapping of letter tuples to values (later keys win)."""
    entries = {}
    for entry in payload["entries"]:
        letters = entry["I"] + entry["J"]
        if all(type(a) is int for a in letters):
            value = GaussRational(Fraction(entry.get("re", "0")), Fraction(entry.get("im", "0")))
            entries[tuple(entry["I"]), tuple(entry["J"])] = value
    return entries


@settings(max_examples=300, deadline=None)
@given(edge_payloads().filter(lambda p: all(
    e.get(name, "0") not in ("abc", "1/0") for e in p["entries"] for name in ("re", "im"))))
def test_constructor_matches_the_old_constructor(payload):
    n, k, entries = payload["n"], payload["k"], int_entries(payload)
    assert outcome(constructed, n, k, entries) == outcome(constructor_oracle, n, k, entries)


# One case per rule, for the loader and the constructor alike.

valid_shapes = st.sampled_from([(0, 0), (1, 1), (1, 2), (2, 2), (3, 2), (2, 3)])


@st.composite
def valid_entries(draw, min_size=1):
    """A shape and nonzero entries at distinct sorted pairs."""
    n, k = draw(valid_shapes)
    index = st.lists(st.integers(0, n), min_size=k, max_size=k).map(lambda letters: tuple(sorted(letters)))
    keys = draw(st.lists(st.tuples(index, index), min_size=min_size, max_size=5, unique=True))
    values = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    return n, k, {key: GaussRational(draw(values), draw(st.sampled_from([0, 0, 1, Fraction(-1, 3)]))) for key in keys}


def payload_of(n, k, entries, order=lambda letters: letters):
    return {
        "n": n,
        "k": k,
        "entries": [
            {"I": order(list(left)), "J": order(list(right)), "re": str(value.re), "im": str(value.im)}
            for (left, right), value in entries.items()
        ],
    }


@settings(max_examples=100, deadline=None)
@given(valid_entries(), st.randoms(use_true_random=False))
def test_letters_in_any_order(case, rng):
    n, k, entries = case
    expected = constructed(n, k, entries)
    shuffled = payload_of(n, k, entries, lambda letters: rng.sample(letters, len(letters)))
    assert loaded(shuffled) == expected == int_loader_oracle(shuffled)
    # the constructor takes sorted pairs only
    unsorted = {(tuple(reversed(left)), right): value for (left, right), value in entries.items()}
    if any(left != tuple(reversed(left)) for left, _ in entries):
        assert outcome(constructed, n, k, unsorted) == (ValueError, "entries must use sorted index representatives")
    else:
        assert constructed(n, k, unsorted) == expected


@settings(max_examples=100, deadline=None)
@given(valid_entries(), st.sampled_from([0, 1]), st.randoms(use_true_random=False))
def test_repeated_pairs_add_up_before_the_zero_check(case, spoil, rng):
    n, k, entries = case
    (left, right), value = next(iter(entries.items()))
    # the first pair again, letters reordered, with one letter out of range
    # when spoilt: the two cancel before any check sees them
    bad = (*left, n + 1)[: len(left)] if spoil and k else left
    cancelling = [
        {"I": rng.sample(list(bad), len(bad)), "J": list(right), "re": str(value.re), "im": str(value.im)},
        {"I": list(reversed(bad)), "J": list(right), "re": str(-value.re), "im": str(-value.im)},
    ]
    payload = payload_of(n, k, entries)
    payload["entries"] = cancelling + payload["entries"]
    assert loaded(payload) == constructed(n, k, entries) == int_loader_oracle(payload)
    # the constructor has one value per key: a reordered key is refused, not added
    if left != tuple(reversed(left)):
        twin = {**entries, (tuple(reversed(left)), right): -value}
        assert outcome(constructed, n, k, twin) == outcome(constructor_oracle, n, k, twin)
        assert outcome(constructed, n, k, twin)[0] is ValueError


bad_indices = st.sampled_from([(), (0,), (0, 0, 0), (-1, 0), (0, 9), (9, 9), (1, 0), (0.5, 1), (True, 0)])


@settings(max_examples=100, deadline=None)
@given(valid_entries(min_size=0), st.lists(st.tuples(bad_indices, bad_indices), min_size=1, max_size=4))
def test_zero_entries_are_dropped_unchecked(case, bad_keys):
    n, k, entries = case
    expected = constructed(n, k, entries)
    zeros = {key: 0 for key in bad_keys}
    assert constructed(n, k, {**zeros, **entries}) == expected
    payload = payload_of(n, k, entries)
    ints = [(left, right) for left, right in bad_keys if all(type(a) is int for a in left + right)]
    payload["entries"] = [{"I": list(left), "J": list(right), "re": "0", "im": "0/5"} for left, right in ints] + payload["entries"]
    assert loaded(payload) == expected == int_loader_oracle(payload)


@settings(max_examples=100, deadline=None)
@given(valid_entries(), st.sampled_from([True, False, 1.0, 0.0, 0.5]), st.sampled_from(["I", "J"]), st.booleans())
def test_bool_and_float_letters_are_refused(case, letter, group, zero):
    n, k, entries = case
    (left, right), value = next(iter(entries.items()))
    payload = payload_of(n, k, entries)
    payload["entries"][0][group] = [letter] + payload["entries"][0][group][1:]
    if zero:
        payload["entries"][0].update(re="0", im="0")
    message = f'index letter in "{group}" must be a JSON integer, got {letter!r}'
    if k:
        assert outcome(loaded, payload) == outcome(int_loader_oracle, payload) == (ValueError, message)
        spoilt = (letter, *left[1:]) if group == "I" else left
        key = spoilt, ((letter, *right[1:]) if group == "J" else right)
        # a bool or float letter equal to an int one names the same dict key
        rest = {other: v for other, v in entries.items() if other not in ((left, right), key)}
        got = outcome(constructed, n, k, {key: 0 if zero else value, **rest})
        if zero:  # a zero entry is dropped unchecked
            assert got == ("ok", constructed(n, k, rest))
        else:
            assert got == (ValueError, f"index letters must be ints, got {key[group == 'J']!r}")


@settings(max_examples=60, deadline=None)
@given(valid_entries(min_size=0), st.sampled_from([(-1, 1), (1, -1), (-2, -3)]), st.booleans())
def test_negative_sizes_are_refused_after_the_entries_are_read(case, sizes, unparsable):
    n, k, entries = case
    payload = payload_of(*sizes, entries)
    if unparsable:
        payload["entries"].append({"I": [], "J": [], "re": "abc"})
        expected = (ValueError, "Invalid literal for Fraction: 'abc'")
    else:
        expected = (ValueError, "need n >= 0 and k >= 0")
    assert outcome(loaded, payload) == outcome(int_loader_oracle, payload) == expected
    # the constructor reads its entries lazily, after the sizes
    bad = {**entries, ((), ()): "abc"} if unparsable else entries
    assert outcome(constructed, *sizes, bad) == (ValueError, "need n >= 0 and k >= 0")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.sampled_from(["zero", "length", "range", "unsorted", "nonzero"]), st.randoms(use_true_random=False))
def test_a_wide_shape_is_refused_at_the_first_nonzero_entry(zeros, first, rng):
    k = 40
    index = lambda: sorted(rng.randrange(WIDE_N) for _ in range(k))
    leading = [{"I": index(), "J": index(), "re": "0"} for _ in range(zeros)]
    head = {"I": index(), "J": index(), "re": "0" if first == "zero" else "1"}
    # the last entry is nonzero, at a pair no other entry can have
    if first == "length":
        head["J"] = head["J"][1:]
    elif first == "range":
        head["I"][-1] = WIDE_N + 1
    elif first == "unsorted":
        head["I"][0], head["I"][-1] = WIDE_N, 0
    last = {"I": [WIDE_N] * k, "J": [WIDE_N] * k, "re": "1"}
    payload = {"n": WIDE_N, "k": k, "entries": [*leading, head, last]}
    got = outcome(loaded, payload)
    assert got == outcome(int_loader_oracle, payload)
    wide = f"a symbol on CP^{WIDE_N} of degree {k} has over 2**{MAX_WIDTH_BITS} sorted index tuples"
    expected = {
        "length": f"index length mismatch for degree {k}: {(tuple(sorted(head['I'])), tuple(sorted(head['J'])))}",
        "range": f"index letter out of range for n={WIDE_N}",
    }
    assert got == (ValueError, expected.get(first, wide))
    entries = {(tuple(e["I"]), tuple(e["J"])): int(e["re"]) for e in payload["entries"]}
    got = outcome(constructed, WIDE_N, k, entries)
    assert got == outcome(constructor_oracle, WIDE_N, k, entries)
    if first == "unsorted":
        assert got == (ValueError, "entries must use sorted index representatives")
    elif first in expected:
        assert got[0] is ValueError and got[1].startswith(expected[first][:30])
    else:
        assert got == (ValueError, wide)
    # all-zero payloads load as the zero tensor without counting W
    payload["entries"] = leading
    entries = {(tuple(e["I"]), tuple(e["J"])): 0 for e in leading}
    assert loaded(payload) == constructed(WIDE_N, k, entries) == (WIDE_N, k, 1, {})
