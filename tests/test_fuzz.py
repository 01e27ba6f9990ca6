"""Fuzzing the front ends.

The text front end gets the fixture documents with one character deleted,
inserted or replaced: parsing must give a document or a
``ParseError``/``ValidationFailed``, and the CLI an exit code of 0, 1 or 2,
never a traceback.  A fixed corpus of such mutations pins what each parse
gives, value or error, so a faster parser must give the same.  The JSON
readers get valid payloads with keys dropped, values swapped for other
types and junk put in: each must return a value or raise
``ValidationFailed``.
"""

import contextlib
import copy
import hashlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualseq import cli
from dualseq.barcode import decompose
from dualseq.errors import ParseError, ValidationFailed
from dualseq.gen import random_eps_complex, random_seq
from dualseq.io import (Document, barcode_from_json, barcode_to_json, complex_from_json,
                        complex_to_json, field_from_json, field_to_json,
                        morphism_to_json, parse_document, seq_from_json, seq_to_json)
from dualseq.linalg import Field
from dualseq.seq import interval
from test_cli import DOC as CLI_DOC
from test_io import DOC as IO_DOC, RAY2

# each fixture with cheap commands on the names it declares
FIXTURES = [
    (IO_DOC, [["decompose", "V"], ["cohomology", "C"], ["classify", "Ray"],
              ["cone", "id_pt"], ["derivation-check", "D", "Z"]]),
    (CLI_DOC, [["truncate", "S01", "0"], ["minimize", "Contractible"], ["cone", "e00"],
               ["phantom", "e00", "--depth", "3"], ["inner-solve", "D", "T"]]),
    (RAY2 + "mor f : X -> X { window 0 1  one 0 [[3]]  one 1 [[1, 2],\n [0, 4]] }\n",
     [["cone", "f"], ["decompose", "X"]]),
]
# the characters of the grammar, and one outside it
ALPHABET = "0123456789-/[]{},:=>#_' \t\r\nacdefilmnoqrstwxyzQD%"


@st.composite
def mutated(draw, with_command=False):
    doc, commands = draw(st.sampled_from(FIXTURES))
    how = draw(st.sampled_from(["delete", "insert", "replace"]))
    i = draw(st.integers(0, len(doc) - (how != "insert")))
    ch = draw(st.sampled_from(ALPHABET))
    if how == "delete":
        text = doc[:i] + doc[i + 1:]
    elif how == "insert":
        text = doc[:i] + ch + doc[i:]
    else:
        text = doc[:i] + ch + doc[i + 1:]
    return (text, draw(st.sampled_from(commands))) if with_command else text


FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=250)
@given(mutated())
def test_mutated_document_parses_or_fails_cleanly(text):
    try:
        assert isinstance(parse_document(text), Document)
    except (ParseError, ValidationFailed):
        pass


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.txt"


@settings(FUZZ, max_examples=80)
@given(case=mutated(with_command=True), as_json=st.booleans())
def test_mutated_document_cli_exit_codes(doc_file, case, as_json):
    text, argv = case
    doc_file.write_text(text)
    args = [argv[0], str(doc_file), *argv[1:]] + (["--json"] if as_json else [])
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    assert code in (0, 1, 2)


def _outcome(text):
    """What parsing ``text`` gives, as JSON: every value of the document, or
    the error's class, message, line and column."""
    try:
        doc = parse_document(text)
    except (ParseError, ValidationFailed) as e:
        return [type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "col", None)]
    return {"field": field_to_json(doc.field),
            "seqs": {k: seq_to_json(v) for k, v in doc.seqs.items()},
            "complexes": {k: complex_to_json(c) for k, c in doc.complexes.items()},
            "morphisms": {k: morphism_to_json(h) for k, h in doc.morphisms.items()},
            "diagrams": sorted(doc.diagrams), "derivations": sorted(doc.derivations)}


# the characters the corpus below puts in: those of the fuzz tests, and a
# fullwidth and an Arabic-Indic 3, decimal digits that ``\d`` admits
CORPUS_ALPHABET = ALPHABET + "\uff13\u0663"
# the SHA-256 of the texts of the corpus below and their outcomes: a parser
# that changes any value, message, line or column changes it
OUTCOMES_SHA256 = "4c583a7f7f15a18d18b3a1f6958a2e3901ff22a64ad3ca15abb123ad74001291"


def test_mutation_corpus_outcomes_are_pinned():
    # the stdlib generator draws the same corpus on every Python and
    # Hypothesis version
    rng = random.Random(30)
    h = hashlib.sha256()
    for _ in range(2000):
        doc, _commands = rng.choice(FIXTURES)
        i = rng.randint(0, len(doc) - 1)
        ch = rng.choice(CORPUS_ALPHABET)
        text = rng.choice([doc[:i] + doc[i + 1:], doc[:i] + ch + doc[i:],
                           doc[:i] + ch + doc[i + 1:]])
        h.update(json.dumps([text, _outcome(text)], sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == OUTCOMES_SHA256


# -- JSON payloads -----------------------------------------------------------


def _payloads():
    """(reader, valid payload) pairs: sequences, complexes and barcodes over
    F2, F5 and Q (rational entries are "a/b" strings), and fields."""
    rng = random.Random(5)
    out = []
    for f in (Field(2), Field(5), Field(None)):
        out.append((lambda d, f=f: field_from_json(d), field_to_json(f)))
        for _ in range(2):
            v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
            out.append((lambda d, f=f: seq_from_json(d, f), seq_to_json(v)))
            out.append((lambda d, f=f: barcode_from_json(d, f),
                        barcode_to_json(decompose(v, with_certificate=False))))
            c = random_eps_complex(rng, f, max_len=4, max_rank=2)
            out.append((lambda d, f=f: complex_from_json(d, f), complex_to_json(c)))
        out.append((lambda d, f=f: seq_from_json(d, f), seq_to_json(interval(f, -1, 1))))
    return out


PAYLOADS = _payloads()
# floats (json.loads("1e400") is inf), bools, huge numbers, strings that are
# almost scalars or endpoints, and nested junk
JUNK = [1.5, 2.7, -0.0, 5.0, json.loads("1e400"), float("nan"), True, False, None,
        10**400, -10**400, 2**63, -1, 0, 7, "", "x", "1/0", "3/2", "-4", "1.5", "inf",
        "-inf", "Q", "zero", "iso", [], {}, [[]], [[[1.5]]], [[True]], {"a": [None]},
        [0, "inf"]]


def _swap(x):
    """``x`` as another JSON type."""
    if isinstance(x, bool) or x is None:
        return int(bool(x))
    if isinstance(x, int):
        return float(x) if abs(x) < 2**53 and x % 2 == 0 else str(x)
    if isinstance(x, float):
        return [x]
    if isinstance(x, str):
        return [x]
    if isinstance(x, list):
        return {str(i): y for i, y in enumerate(x)}
    return list(x.values())


def _slots(x):
    """Every (container, key) inside a JSON value, outermost first."""
    out = []
    for k in (list(x) if isinstance(x, dict) else range(len(x))
              if isinstance(x, list) else ()):
        out.append((x, k))
        out += _slots(x[k])
    return out


@st.composite
def mutated_payload(draw):
    read, payload = draw(st.sampled_from(PAYLOADS))
    root = [copy.deepcopy(payload)]
    for _ in range(draw(st.integers(1, 3))):
        box, key = draw(st.sampled_from(_slots(root)))
        how = draw(st.sampled_from(["drop", "junk", "swap"]))
        if how == "drop" and box is not root:
            del box[key]
        elif how == "swap":
            box[key] = _swap(box[key])
        else:
            box[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return read, root[0]


def _read_leaves(x):
    """The leaves of a payload that a reader reads (barcode counts are
    written for people and never read)."""
    if isinstance(x, dict):
        return [y for k, v in x.items() if k != "counts" for y in _read_leaves(v)]
    if isinstance(x, list):
        return [y for v in x for y in _read_leaves(v)]
    return [x]


@settings(FUZZ, max_examples=400)
@given(mutated_payload())
def test_mutated_json_payload_reads_or_fails_cleanly(case):
    read, data = case
    try:
        read(data)
    except ValidationFailed:
        return
    # nothing a reader reads may be a float or a bool
    assert not any(isinstance(x, (float, bool)) for x in _read_leaves(data))
