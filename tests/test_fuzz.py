"""Fuzzing the text front end: the fixture documents with one character
deleted, inserted or replaced.  Parsing must give a document or a
``ParseError``/``ValidationFailed``, and the CLI an exit code of 0, 1 or 2,
never a traceback."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualseq import cli
from dualseq.errors import ParseError, ValidationFailed
from dualseq.io import Document, parse_document
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
