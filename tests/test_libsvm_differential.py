"""``parse_libsvm`` against the token-by-token reference parser.

Each case is generated from its seed: data lines with ordered, unordered
and repeated indices, zero and negative-zero values and empty rows, among
blank and comment lines, with tabs, CRLF line ends and every label set, read
from a text stream, a plain file or a gzip file, sometimes with an
``n_features`` override, and with up to two faults drawn from the list in
``FAULTS``.  Both parsers must return the same CSR arrays (dtypes included),
labels and label mapping, or raise the same error, after the same warnings.
The cases run at the default block size and at a tiny one, so that one
input spans many blocks and a fault lands in a later block than a warning.
"""

import gzip
import io
import random
import warnings

import pytest

from stochnewton import logreg
from stochnewton.logreg import parse_libsvm

from conftest import reference_parse_libsvm

CASES = 2000
LABEL_SETS = (("-1", "+1"), ("-1", "1"), ("0", "1"), ("1", "2"), ("+1",),
              ("-1", "+1.0"), ("0", "1", "2"))
VALUES = ("0", "0.0", "-0.0", "1", "-2.5", "1e-3", "3E+2", "0.125", ".5")
# (fault, where, token): a fault drops a data line's label, replaces it or
# inserts a token among its features
FAULTS = (
    ("no label", "drop", None), ("no colon", "insert", "7"),
    ("two colons", "insert", "2:3:4"), ("empty index", "insert", ":1.5"),
    ("empty value", "insert", "4:"), ("lone colon", "insert", ":"),
    ("index 0", "insert", "0:1"), ("negative index", "insert", "-3:2"),
    ("index beyond int64", "insert", "9223372036854775808:1"),
    ("negative beyond int64", "insert", "-9223372036854775809:1"),
    ("word value", "insert", "2:one"), ("nan value", "insert", "2:nan"),
    ("inf value", "insert", "2:inf"), ("-inf value", "insert", "2:-Infinity"),
    ("undecodable", "insert", "2:1\udca05"), ("nan label", "label", "nan"),
    ("inf label", "label", "inf"), ("-inf label", "label", "-inf"),
    ("word label", "label", "spam"),
)


def _value(rnd: random.Random) -> str:
    if rnd.random() < 0.4:
        return rnd.choice(VALUES)
    return repr(rnd.uniform(-10.0, 10.0))


def _data_line(rnd: random.Random, labels) -> list:
    size = rnd.choice((0, 1, 2, 3, 5, 8))
    indices = sorted(rnd.sample(range(1, 40), size))
    if rnd.random() < 0.3:  # out of order, sometimes with repeats
        indices = [rnd.choice(indices) if rnd.random() < 0.3 else i
                   for i in rnd.sample(indices, size)]
    return [rnd.choice(labels)] + [f"{i}:{_value(rnd)}" for i in indices]


def _add_fault(rnd: random.Random, rows: list) -> None:
    data = [row for row in rows if isinstance(row, list)]
    if not data:
        return
    row = rnd.choice(data)
    _, where, token = rnd.choice(FAULTS)
    if where == "drop":
        del row[0]
        if not row:
            row.append("5:1")
    elif where == "label":
        row[0] = token
    else:
        row.insert(rnd.randrange(1, len(row) + 1), token)


def generate_case(seed: int):
    """``(text, n_features, kind)`` of case `seed`; kind is how it is read."""
    rnd = random.Random(seed)
    labels = rnd.choice(LABEL_SETS)
    rows = []
    for _ in range(rnd.randrange(0, 14)):
        kind = rnd.random()
        if kind < 0.12:
            rows.append(rnd.choice(("", "   ", "\t")))
        elif kind < 0.2:
            rows.append(rnd.choice(("# comment 1:2", "  #x", "#caf\udce9")))
        else:
            rows.append(_data_line(rnd, labels))
    for _ in range(rnd.choice((0, 0, 1, 1, 2))):
        _add_fault(rnd, rows)
    end = "\r\n" if rnd.random() < 0.2 else "\n"
    lines = [row if isinstance(row, str)
             else rnd.choice((" ", "\t", "  ", " \t")).join(row) for row in rows]
    text = end.join(lines) + (end if rnd.random() < 0.8 else "")
    n_features = None
    if rnd.random() < 0.25:
        n_features = rnd.choice((0, 1, 20, 39, 40, 60))
    return text, n_features, rnd.choice(("stream", "stream", "plain", "gzip"))


@pytest.fixture(scope="module")
def cases() -> list:
    """Every generated case, shared by both block sizes."""
    return [generate_case(seed) for seed in range(CASES)]


def _opener(text: str, kind: str, path):
    """A callable that gives each parser a fresh source of the case."""
    if kind == "stream":
        return lambda: io.StringIO(text)
    raw = text.encode("utf-8", "surrogateescape")
    path.write_bytes(gzip.compress(raw) if kind == "gzip" else raw)
    return lambda: str(path)


def _outcome(parse, source, n_features):
    """What `parse` does with the case: its result or error, and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(source(), n_features=n_features)
        except Exception as exc:  # compared by type and message
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same(got, expected, context):
    (result, warned), (ref, ref_warned) = got, expected
    assert warned == ref_warned, context
    if isinstance(ref, Exception):
        assert type(result) is type(ref) and str(result) == str(ref), context
        return
    assert not isinstance(result, Exception), (context, result)
    assert result.features.shape == ref.features.shape, context
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(result.features, attr), getattr(ref.features, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (context, attr)
    assert result.labels.dtype == ref.labels.dtype, context
    assert result.labels.tobytes() == ref.labels.tobytes(), context
    assert result.label_mapping == ref.label_mapping, context


@pytest.mark.parametrize("block_chars", [logreg._BLOCK_CHARS, 40],
                         ids=["default-blocks", "tiny-blocks"])
def test_parser_matches_tokenwise_reference(block_chars, cases, tmp_path,
                                            monkeypatch):
    monkeypatch.setattr(logreg, "_BLOCK_CHARS", block_chars)
    path = tmp_path / "case.svm"
    raised = 0
    for seed, (text, n_features, kind) in enumerate(cases):
        source = _opener(text, kind, path)
        expected = _outcome(reference_parse_libsvm, source, n_features)
        got = _outcome(parse_libsvm, source, n_features)
        _assert_same(got, expected, (seed, kind, n_features, text))
        raised += isinstance(expected[0], Exception)
    # both outcomes are well represented
    assert CASES // 5 < raised < CASES - CASES // 5
