"""Document parsing and serialization.

The text grammar is documented in docs/FORMAT.md; it names a base field once
and then declares sequences, complexes, morphisms, diagrams, and derivations.
Every loaded value is validated (sequence normal form, complex laws, morphism
closedness, diagram relations), so a parsed document is a usable one.
The lexer is one regex pass: a well-formed numeric matrix literal is one
token, which the C scanner of ``json`` decodes when its entries are
integers, and a token's offset becomes a line and column only for an error
(docs/NOTES.md, "Cost of a parse").

JSON encoders mirror the same data with a versioned ``"schema": 1`` envelope;
entries over the rationals are written as ``"a/b"`` strings, prime-field
entries as plain integers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .barcode import Barcode, Interval, assembled_dims, make_barcode
from .config import MAX_DIM, MAX_SPAN
from .dualnum import EpsComplex, validate
from .errors import ParseError, ValidationFailed
from .graded import GradedHomElement, make_element, zero_element
from .hom import HatMorphism, _hat, _require_one_field, zero_hat
from .linalg import Field, Matrix
from .phantom import Derivation, Diagram
from .seq import Seq, Tail, interval, make_seq

# A scalar, and the blanks and line breaks a matrix literal may hold.
_SCALAR = r"-?\d+(?:/\d+)?"
_GAP = r"[ \t\r\n]*"
_ROW = rf"\[{_GAP}(?:{_SCALAR}{_GAP}(?:,{_GAP}{_SCALAR}{_GAP})*)?\]"
# A well-formed numeric matrix literal is one token; anything else that
# starts with ``[`` lexes into bracket, number and comma tokens.
_MATRIX = rf"(?P<matrix>\[{_GAP}(?:{_ROW}{_GAP}(?:,{_GAP}{_ROW}{_GAP})*)?\])"
# The other lexemes, tried in order; the catch-all ``bad`` is the
# "unexpected character" error.
_LEXEMES = rf"""
    (?P<inf>-?inf\b)
  | (?P<word>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<number>{_SCALAR})
  | (?P<arrow>->)
  | (?P<punct>[{{}}\[\],:=])
  | (?P<bad>[\s\S])
"""
# Blanks, line breaks and comments.  Each token match swallows the ones
# after it, so one match is one token; nothing can fail after this greedy
# run, so it never backtracks.
_SKIP = r"(?:[ \t\r\n]+|\#[^\n]*)*"
_TOKEN = re.compile(rf"(?:{_MATRIX} | {_LEXEMES}){_SKIP}", re.VERBOSE)
_PLAIN = re.compile(rf"(?:{_LEXEMES}){_SKIP}", re.VERBOSE)
_LEADING = re.compile(_SKIP)
_JSON_SCALAR = re.compile(_SCALAR)
# the C scanner behind json.loads, without its Python wrapper: (value, end)
# of the JSON value at an offset
_SCAN = json.JSONDecoder().scan_once


class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int         # offset into the document


def _line_col(text: str, pos: int) -> Tuple[int, int]:
    """1-based line and column of offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str, lexer=_TOKEN, pos: int = 0,
              endpos: Optional[int] = None) -> List[_Tok]:
    """The tokens of ``text[pos:endpos]`` in one regex pass; positions are
    offsets, turned into line and column only for an error.  A token is
    built by ``tuple.__new__``, which skips the generated ``_Tok.__new__``."""
    out = []
    append = out.append
    new = tuple.__new__
    endpos = len(text) if endpos is None else endpos
    for m in lexer.finditer(text, _LEADING.match(text, pos, endpos).end(), endpos):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}",
                             *_line_col(text, m.start()))
        append(new(_Tok, (kind, m[kind], m.start())))
    return out


class _Stream:
    def __init__(self, text: str, toks: List[_Tok]):
        self.text = text
        self.toks = toks
        self.pos = 0
        self.squares = 0         # of the dimensions and ranks declared so far

    def declare(self, squares: int) -> None:
        """Add a declaration's summed squares of dimensions or ranks to the
        document's, which ``MAX_DIM^2`` bounds as it bounds those of one
        sequence or complex (``dualseq.config``)."""
        self.squares += squares
        if self.squares > MAX_DIM * MAX_DIM:
            raise ValidationFailed(
                f"the squares of the dimensions and ranks declared in the document "
                f"sum to {self.squares}, more than the limit of {MAX_DIM}^2")

    def error(self, message: str, tok: Optional[_Tok]) -> ParseError:
        """A ``ParseError`` at ``tok``, or at line 1, column 1 for none."""
        line, col = _line_col(self.text, tok.pos) if tok is not None else (1, 1)
        return ParseError(message, line, col)

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, expect_kind: str = None, expect_text: str = None) -> _Tok:
        pos, toks = self.pos, self.toks
        if pos < len(toks):
            # the common case: a plain token that meets the expectation
            tok = toks[pos]
            kind = tok[0]
            if (kind != "matrix" and (not expect_kind or kind == expect_kind)
                    and (not expect_text or tok[1] == expect_text)):
                self.pos = pos + 1
                return tok
        return self._next(expect_kind, expect_text)

    def _next(self, expect_kind: Optional[str], expect_text: Optional[str]) -> _Tok:
        """``next`` at the end of the document, on a matrix literal, or for
        a token that fails the expectation."""
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            if last is not None and last.kind == "matrix":
                last = _Tok("punct", "]", last.pos + len(last.text) - 1)
            raise self.error("unexpected end of document", last)
        if tok.kind == "matrix":
            # only _parse_matrix takes a literal whole; anything else, its
            # error loop included, reads the literal's plain tokens
            self.toks[self.pos:self.pos + 1] = _tokenize(
                self.text, _PLAIN, tok.pos, tok.pos + len(tok.text))
            tok = self.toks[self.pos]
        if expect_kind and tok.kind != expect_kind:
            raise self.error(f"expected {expect_kind}, found {tok.text!r}", tok)
        if expect_text and tok.text != expect_text:
            raise self.error(f"expected {expect_text!r}, found {tok.text!r}", tok)
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        pos, toks = self.pos, self.toks
        if pos < len(toks) and toks[pos][1] == text:
            self.pos = pos + 1
            return True
        return False


@dataclass
class Document:
    """A parsed document: one base field plus named values."""

    field: Field
    seqs: Dict[str, Seq] = dfield(default_factory=dict)
    complexes: Dict[str, EpsComplex] = dfield(default_factory=dict)
    morphisms: Dict[str, HatMorphism] = dfield(default_factory=dict)
    diagrams: Dict[str, Diagram] = dfield(default_factory=dict)
    derivations: Dict[str, Derivation] = dfield(default_factory=dict)

    def seq(self, name: str) -> Seq:
        if name not in self.seqs:
            raise ValidationFailed(f"unknown sequence {name!r}")
        return self.seqs[name]

    def complex(self, name: str) -> EpsComplex:
        if name not in self.complexes:
            raise ValidationFailed(f"unknown complex {name!r}")
        return self.complexes[name]

    def morphism(self, name: str) -> HatMorphism:
        if name not in self.morphisms:
            raise ValidationFailed(f"unknown morphism {name!r}")
        return self.morphisms[name]


def check_span(lo, hi, what: str) -> None:
    """Refuse a window of more than ``MAX_SPAN`` degrees, or with a finite
    end outside ``[-MAX_SPAN, MAX_SPAN]`` (``dualseq.config``), before
    anything is built for it.  An infinite end (a ray) is not a degree and
    is not bounded."""
    if isinstance(lo, int) and isinstance(hi, int) and hi - lo >= MAX_SPAN:
        raise ValidationFailed(f"{what} [{lo}, {hi}] spans {hi - lo + 1} degrees, "
                               f"more than the limit of {MAX_SPAN}")
    for x in (lo, hi):
        if isinstance(x, int) and abs(x) > MAX_SPAN:
            raise ValidationFailed(f"{what} [{lo}, {hi}] reaches degree {x}, "
                                   f"more than the limit of {MAX_SPAN} from 0")


def _check_dims(dims, what: str) -> int:
    """Refuse dimensions or ranks whose squares sum to more than
    ``MAX_DIM**2``, among them any one above ``MAX_DIM`` (``dualseq.config``),
    before anything is built for them; else give that sum."""
    total = sum(d * d for d in dims)
    if total > MAX_DIM * MAX_DIM:
        big = max(dims)
        if big > MAX_DIM:
            raise ValidationFailed(f"{what} {big} is more than the limit of {MAX_DIM}")
        raise ValidationFailed(f"the squares of the {what}s sum to {total}, "
                               f"more than the limit of {MAX_DIM}^2")
    return total


def _int(s: _Stream, tok: _Tok) -> int:
    try:
        return int(tok.text)
    except ValueError:          # more digits than int() converts
        raise s.error("number has too many digits", tok) from None


def _parse_int(s: _Stream) -> int:
    tok = s.next("number")
    if "/" in tok.text:
        raise s.error("expected an integer", tok)
    return _int(s, tok)


def _parse_endpoint(s: _Stream):
    tok = s.peek()
    if tok is not None and tok.kind == "inf":
        s.next()
        return -math.inf if tok.text.startswith("-") else math.inf
    return _parse_int(s)


def _parse_window(s: _Stream, key: _Tok) -> Tuple[int, int]:
    lo, hi = _parse_int(s), _parse_int(s)
    if hi < lo:
        raise s.error("window upper end below lower end", key)
    check_span(lo, hi, "window")
    return lo, hi


def _scalar(text: str, field: Field):
    """The scalar ``text`` (``-?a`` or ``-?a/b``) in ``field``; ``b = 0``
    raises ``ZeroDivisionError``."""
    if "/" not in text:
        return int(text) % field.p if field.p is not None else Fraction(int(text))
    return field.coerce(Fraction(text))


def _parse_scalar(s: _Stream, field: Field):
    tok = s.next("number")
    try:
        return _scalar(tok.text, field)
    except ZeroDivisionError:
        raise s.error(f"zero denominator in {tok.text}", tok) from None
    except ValueError:
        raise s.error("number has too many digits", tok) from None


def _literal_entries(text: str, field: Field, rows: int, cols: int) -> Optional[tuple]:
    """The entries of a matrix token, row by row, or None when it is not
    ``rows x cols`` or an entry is not a scalar of ``field``.

    A literal of ASCII integers is JSON, and the C scanner of ``json``
    reads it.  What the scanner refuses goes to the ``str.split`` decoder:
    a leading zero such as ``01`` or an entry of more digits than ``int``
    converts (``ValueError``), or a non-ASCII decimal digit, which the
    lexer admits (``StopIteration`` where it starts an entry).  So does a
    literal it reads into another shape, and any literal with ``a/b``; only
    that decoder refuses."""
    p = field.p
    if "/" not in text:
        try:
            cells = _SCAN(text, 0)[0]
        except (ValueError, StopIteration):
            pass
        else:
            if len(cells) == rows and all(len(r) == cols for r in cells):
                flat = [x for r in cells for x in r]
                return tuple([x % p for x in flat]) if p is not None else tuple(map(Fraction, flat))
    inner = "".join(text.split())[1:-1]          # "[1,0],[2/3,-4]", "" or "[],[]"
    cells = [r.split(",") if r else [] for r in inner[1:-1].split("],[")] if inner else []
    if len(cells) != rows or any(len(r) != cols for r in cells):
        return None
    flat = [x for r in cells for x in r]
    try:
        if "/" in inner:
            return tuple([_scalar(x, field) for x in flat])
        if p is not None:
            return tuple([int(x) % p for x in flat])
        return tuple(map(Fraction, map(int, flat)))
    except (ZeroDivisionError, ValueError, ValidationFailed):
        return None


def _parse_matrix(s: _Stream, field: Field, rows: int, cols: int) -> Matrix:
    tok = s.peek()
    if tok is not None and tok.kind == "matrix":
        data = _literal_entries(tok.text, field, rows, cols)
        if data is not None:
            s.pos += 1
            return Matrix(field, rows, cols, data)
    # the one error path: a malformed literal, or a shape or scalar error in
    # a well-formed one, whose token ``next`` splits into its plain tokens
    open_tok = s.next("punct", "[")
    data = []
    nrows = 0
    if not s.accept("]"):
        while True:
            s.next("punct", "[")
            row = []
            if not s.accept("]"):
                while True:
                    row.append(_parse_scalar(s, field))
                    if not s.accept(","):
                        break
                s.next("punct", "]")
            data.append(row)
            nrows += 1
            if not s.accept(","):
                break
        s.next("punct", "]")
    if nrows != rows or any(len(r) != cols for r in data):
        raise s.error(f"matrix must be {rows} x {cols}", open_tok)
    return Matrix(field, rows, cols,
                  tuple(x for row in data for x in row))


_TAILS = {"zero": Tail.ZERO, "iso": Tail.ISO}


def _once(s: _Stream, seen: set, tok: _Tok, *item) -> None:
    """Record a key of a block, or a component and its degree; a repeat is
    a parse error at ``tok``."""
    if item in seen:
        raise s.error("repeated " + " ".join(map(str, item)), tok)
    seen.add(item)


def _declared(raw: dict, k: int, field: Field, rows: int, cols: int) -> Matrix:
    """The matrix declared at ``k``, or else the zero one of its shape."""
    m = raw.get(k)
    return m if m is not None else Matrix.zeros(field, rows, cols)


def _parse_seq(s: _Stream, field: Field) -> Seq:
    s.next("punct", "{")
    window = None
    dims = None
    maps_raw: Dict[int, Matrix] = {}
    tails = (Tail.ZERO, Tail.ZERO)
    seen: set = set()
    while not s.accept("}"):
        key = s.next("word")
        if key.text != "map":
            _once(s, seen, key, key.text)
        if key.text == "interval":
            if len(seen) > 1:
                raise s.error("interval must be the only key", key)
            a = _parse_endpoint(s)
            b = _parse_endpoint(s)
            check_span(a, b, "interval")
            s.next("punct", "}")
            v = interval(field, a, b)
            s.declare(len(v.dims))      # each of dimension 1
            return v
        if key.text == "window":
            window = _parse_window(s, key)
        elif key.text == "dims":
            if window is None:
                raise s.error("dims must follow window", key)
            dims = tuple(_parse_int(s) for _ in range(window[1] - window[0] + 1))
            if any(d < 0 for d in dims):
                raise s.error("dimensions must be nonnegative", key)
            s.declare(_check_dims(dims, "sequence dimension"))
        elif key.text == "map":
            if dims is None:
                raise s.error("map must follow dims", key)
            i = _parse_int(s)
            if not window[0] <= i < window[1]:
                raise s.error(f"map degree {i} outside window", key)
            _once(s, seen, key, "map", i)
            k = i - window[0]
            maps_raw[i] = _parse_matrix(s, field, dims[k + 1], dims[k])
        elif key.text == "tails":
            lt = s.next("word")
            rt = s.next("word")
            if lt.text not in _TAILS or rt.text not in _TAILS:
                raise s.error("tails must be zero or iso", lt)
            tails = (_TAILS[lt.text], _TAILS[rt.text])
        else:
            raise s.error(f"unknown sequence key {key.text!r}", key)
    if window is None or dims is None:
        raise s.error("sequence needs window and dims", s.peek())
    lo, hi = window
    maps = [_declared(maps_raw, i, field, dims[i - lo + 1], dims[i - lo])
            for i in range(lo, hi)]
    return make_seq(field, lo, dims, maps, tails[0], tails[1])


def _parse_complex(s: _Stream, field: Field) -> EpsComplex:
    s.next("punct", "{")
    degree = 0
    ranks = None
    d1_raw: Dict[int, Matrix] = {}
    deps_raw: Dict[int, Matrix] = {}
    seen: set = set()
    while not s.accept("}"):
        key = s.next("word")
        if key.text not in ("d1", "deps"):
            _once(s, seen, key, key.text)
        if key.text == "degree":
            if d1_raw or deps_raw:
                raise s.error("degree must precede d1 and deps", key)
            degree = _parse_int(s)
        elif key.text == "ranks":
            ranks = []
            while s.peek() is not None and s.peek().kind == "number":
                ranks.append(_parse_int(s))
            if not ranks:
                raise s.error("ranks needs at least one entry", key)
            s.declare(_check_dims(ranks, "complex rank"))
        elif key.text in ("d1", "deps"):
            if ranks is None:
                raise s.error(f"{key.text} must follow ranks", key)
            i = _parse_int(s)
            k = i - degree
            if not 0 <= k < len(ranks) - 1:
                raise s.error(f"{key.text} degree {i} outside window", key)
            _once(s, seen, key, key.text, i)
            m = _parse_matrix(s, field, ranks[k + 1], ranks[k])
            (d1_raw if key.text == "d1" else deps_raw)[k] = m
        else:
            raise s.error(f"unknown complex key {key.text!r}", key)
    if ranks is None:
        raise s.error("complex needs ranks", s.peek())
    n = len(ranks)
    check_span(degree, degree + n - 1, "complex window")
    d1 = tuple(_declared(d1_raw, k, field, ranks[k + 1], ranks[k]) for k in range(n - 1))
    deps = tuple(_declared(deps_raw, k, field, ranks[k + 1], ranks[k]) for k in range(n - 1))
    c = EpsComplex(field, degree, tuple(ranks), d1, deps)
    rep = validate(c)
    if not rep.ok:
        raise ValidationFailed(f"complex invariant {rep}")
    return c


def _parse_morphism(s: _Stream, field: Field, doc: Document) -> HatMorphism:
    s.next("punct", ":")
    src = doc.seq(s.next("word").text)
    s.next("arrow")
    dst = doc.seq(s.next("word").text)
    s.next("punct", "{")
    window = None
    one_raw: Dict[int, Matrix] = {}
    eps_raw: Dict[int, Matrix] = {}
    constant = None        # the `constant` token, when given
    seen: set = set()
    while not s.accept("}"):
        key = s.next("word")
        if key.text not in ("one", "eps"):
            _once(s, seen, key, key.text)
        if key.text == "window":
            window = _parse_window(s, key)
        elif key.text in ("one", "eps"):
            if window is None:
                raise s.error(f"{key.text} must follow window", key)
            i = _parse_int(s)
            if not window[0] <= i <= window[1]:
                raise s.error(f"component degree {i} outside window", key)
            _once(s, seen, key, key.text, i)
            m = _parse_matrix(s, field, dst.dim(i), src.dim(i))
            (one_raw if key.text == "one" else eps_raw)[i] = m
        elif key.text == "tails":
            t = s.next("word")
            if t.text == "constant":
                constant = t
            elif t.text != "zero":
                raise s.error("morphism tails must be zero or constant", t)
        else:
            raise s.error(f"unknown morphism key {key.text!r}", key)
    if not one_raw and not eps_raw:
        # the zero morphism: one zero element for both parts, and no
        # morphism check, which a zero element passes unread
        _require_one_field(src, dst)
        return zero_hat(src, dst)
    if window is None:
        window = (min(src.lo, dst.lo), max(src.hi, dst.hi))
    lo, hi = window

    def blocks(raw):
        def fn(i):
            j = min(max(i, lo), hi) if constant else i
            m = raw.get(j)
            r, c = dst.dim(i), src.dim(i)
            if m is None:
                return Matrix.zeros(field, r, c)
            if (m.rows, m.cols) == (r, c):
                return m
            # only a constant tail reaches a degree of another shape; a
            # zero block, or a shape with no entries, repeats as zero
            if r and c and not m.is_zero:
                raise s.error(
                    f"tails constant cannot repeat the {m.rows} x {m.cols} component "
                    f"of degree {j} into degree {i}, where components are {r} x {c}", constant)
            return Matrix.zeros(field, r, c)
        return fn

    f1 = (make_element(src, dst, 0, lo, hi, blocks(one_raw)) if one_raw
          else zero_element(src, dst, 0))
    eps_at = blocks(eps_raw) if eps_raw else None
    if eps_at and constant:     # report a bad repeat where make_element would
        for i in range(min(lo, src.lo, dst.lo), max(hi, src.hi, dst.hi) + 1):
            eps_at(i)
    return _hat(f1, eps_at)


def _parse_diagram(s: _Stream, doc: Document) -> Diagram:
    s.next("punct", "{")
    objects: Dict[str, Seq] = {}
    generators: Dict[str, Tuple[str, str, HatMorphism]] = {}
    relations: List[Tuple[str, str, str]] = []
    while not s.accept("}"):
        key = s.next("word")
        if key.text == "objects":
            while True:
                nm = s.next("word").text
                objects[nm] = doc.seq(nm)
                if not s.accept(","):
                    break
        elif key.text == "gen":
            gtok = s.next("word")
            gname = gtok.text
            if gname in generators:
                raise s.error(f"repeated gen {gname}", gtok)
            s.next("punct", ":")
            sn = s.next("word").text
            s.next("arrow")
            dn = s.next("word").text
            s.next("punct", "=")
            mor = doc.morphism(s.next("word").text)
            generators[gname] = (sn, dn, mor)
        elif key.text == "rel":
            outer = s.next("word").text
            inner = s.next("word").text
            s.next("punct", "=")
            equals = s.next("word").text
            relations.append((outer, inner, equals))
        else:
            raise s.error(f"unknown diagram key {key.text!r}", key)
    return Diagram(objects=objects, generators=generators,
                   relations=tuple(relations))


def _parse_derivation(s: _Stream, doc: Document) -> Derivation:
    name = s.next("word", None)
    if name.text != "on":
        raise s.error("derivation header must read 'derivation <name> on <diagram>'", name)
    dg_tok = s.next("word")
    if dg_tok.text not in doc.diagrams:
        raise ValidationFailed(f"unknown diagram {dg_tok.text!r}")
    diag = doc.diagrams[dg_tok.text]
    s.next("punct", "{")
    assignment: Dict[str, HatMorphism] = {}
    while not s.accept("}"):
        key = s.next("word", None)
        if key.text != "D":
            raise s.error("derivation entries read 'D <gen> = <morphism>'", key)
        gtok = s.next("word")
        gname = gtok.text
        if gname in assignment:
            raise s.error(f"repeated D {gname}", gtok)
        if gname not in diag.generators:
            raise s.error(f"{gname} is not a generator of {dg_tok.text}", gtok)
        s.next("punct", "=")
        assignment[gname] = doc.morphism(s.next("word").text)
    return Derivation(diagram=diag, assignment=assignment)


def parse_document(text: str) -> Document:
    s = _Stream(text, _tokenize(text))
    head = s.next("word", "field")
    ft = s.next()
    if ft.text == "Q":
        field = Field(None)
    elif ft.kind == "number" and "/" not in ft.text:
        field = Field(_int(s, ft))
    else:
        raise s.error("field must be Q or a prime", ft)
    doc = Document(field=field)
    kinds = {"seq": doc.seqs, "complex": doc.complexes, "mor": doc.morphisms,
             "diagram": doc.diagrams, "derivation": doc.derivations}
    while s.peek() is not None:
        kw = s.next("word")
        if kw.text not in kinds:
            raise s.error(f"unknown declaration {kw.text!r}", kw)
        name = s.next("word").text
        named = kinds[kw.text]
        # one namespace for all kinds: `cohomology NAME` looks a name up
        # among both the complexes and the sequences
        if any(name in other for other in kinds.values()):
            raise s.error(f"name {name!r} is declared twice", kw)
        if kw.text == "seq":
            named[name] = _parse_seq(s, field)
        elif kw.text == "complex":
            named[name] = _parse_complex(s, field)
        elif kw.text == "mor":
            named[name] = _parse_morphism(s, field, doc)
        elif kw.text == "diagram":
            named[name] = _parse_diagram(s, doc)
        else:
            named[name] = _parse_derivation(s, doc)
    return doc


def parse_path(path: str) -> Document:
    """Parse a UTF-8 document file; line breaks ``\\r\\n`` and ``\\r`` read as
    ``\\n``, as in a text-mode read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = _newlines(data[:e.start].decode("utf-8"))
        raise ParseError(f"document is not UTF-8: byte {data[e.start]:#04x} at offset "
                         f"{e.start}", *_line_col(head, len(head))) from None
    return parse_document(_newlines(text))


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


# -- JSON encoding ----------------------------------------------------------


def _scalar_out(x, field: Field):
    if field.p is not None:
        return int(x)
    fr = Fraction(x)
    return int(fr) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _scalar_in(x, field: Field):
    """A JSON entry: an integer (booleans are not integers) or an ``"a"`` /
    ``"a/b"`` string; anything else, floats included, is refused."""
    if _is_int(x):
        return field.coerce(x)
    if isinstance(x, str) and _JSON_SCALAR.fullmatch(x):
        return _scalar(x, field)
    raise ValidationFailed(f"bad matrix entry: {x!r} is not an integer or an \"a/b\" string")


def matrix_to_json(m: Matrix) -> list:
    return [[_scalar_out(m.entry(i, j), m.field) for j in range(m.cols)]
            for i in range(m.rows)]


def matrix_from_json(data: list, field: Field, rows: int, cols: int) -> Matrix:
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in data)):
        raise ValidationFailed(f"matrix payload must be {rows} x {cols}")
    try:
        entries = tuple(_scalar_in(x, field) for row in data for x in row)
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationFailed(f"bad matrix entry: {e}") from None
    return Matrix(field, rows, cols, entries)


def field_to_json(field: Field):
    return "Q" if field.p is None else field.p


def field_from_json(data) -> Field:
    """``"Q"`` or a prime given as an integer (booleans are not integers)."""
    if data == "Q":
        return Field(None)
    if not _is_int(data):
        raise ValidationFailed(f"field must be \"Q\" or a prime, got {data!r}")
    return Field(data)


def seq_to_json(v: Seq) -> dict:
    return {
        "window": [v.lo, v.hi],
        "dims": list(v.dims),
        "maps": [matrix_to_json(v.map_at(i)) for i in range(v.lo, v.hi)],
        "tails": [v.left_tail.name.lower(), v.right_tail.name.lower()],
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_keys(data, what: str, keys) -> None:
    """``data`` is an object holding every key in ``keys``."""
    if not isinstance(data, dict):
        raise ValidationFailed(f"{what} payload must be an object")
    for key in keys:
        if key not in data:
            raise ValidationFailed(f"{what} payload is missing {key!r}")


def seq_from_json(data: dict, field: Field) -> Seq:
    _require_keys(data, "sequence", ("window", "dims", "maps", "tails"))
    for key in ("window", "dims", "maps", "tails"):
        if not isinstance(data[key], list):
            raise ValidationFailed(f"sequence {key!r} must be a list")
    if len(data["window"]) != 2 or len(data["tails"]) != 2:
        raise ValidationFailed("sequence window and tails must have two entries each")
    if not all(map(_is_int, data["window"])):
        raise ValidationFailed(f"sequence window entries must be integers: {data['window']}")
    if not all(_is_int(d) and d >= 0 for d in data["dims"]):
        raise ValidationFailed(f"sequence dims must be integers >= 0: {data['dims']}")
    lo, hi = data["window"]
    check_span(lo, hi, "sequence window")
    _check_dims(data["dims"], "sequence dimension")
    dims = tuple(data["dims"])
    if len(dims) != hi - lo + 1:
        raise ValidationFailed(f"window [{lo}, {hi}] needs {hi - lo + 1} dims, "
                               f"got {len(dims)}")
    if len(data["maps"]) != len(dims) - 1:
        raise ValidationFailed(f"{len(dims)} dims need {len(dims) - 1} maps, "
                               f"got {len(data['maps'])}")
    for t in data["tails"]:
        if not isinstance(t, str) or t not in _TAILS:
            raise ValidationFailed(f"unknown tail {t!r} (expected zero or iso)")
    maps = [matrix_from_json(m, field, dims[k + 1], dims[k])
            for k, m in enumerate(data["maps"])]
    tails = [_TAILS[t] for t in data["tails"]]
    return make_seq(field, lo, dims, maps, tails[0], tails[1])


def complex_to_json(c: EpsComplex) -> dict:
    return {
        "degree": c.lo,
        "ranks": list(c.ranks),
        "d1": [matrix_to_json(m) for m in c.d1],
        "deps": [matrix_to_json(m) for m in c.deps],
    }


def complex_from_json(data: dict, field: Field) -> EpsComplex:
    _require_keys(data, "complex", ("degree", "ranks", "d1", "deps"))
    if not _is_int(data["degree"]):
        raise ValidationFailed(f"complex degree must be an integer: {data['degree']!r}")
    for key in ("ranks", "d1", "deps"):
        if not isinstance(data[key], list):
            raise ValidationFailed(f"complex {key!r} must be a list")
    if not all(_is_int(r) and r >= 0 for r in data["ranks"]):
        raise ValidationFailed(f"complex ranks must be integers >= 0: {data['ranks']}")
    ranks = tuple(data["ranks"])
    check_span(data["degree"], data["degree"] + len(ranks) - 1, "complex window")
    _check_dims(ranks, "complex rank")
    for key in ("d1", "deps"):
        if len(data[key]) != len(ranks) - 1:
            raise ValidationFailed(f"{len(ranks)} ranks need {len(ranks) - 1} "
                                   f"{key} maps, got {len(data[key])}")
    d1 = tuple(matrix_from_json(m, field, ranks[k + 1], ranks[k])
               for k, m in enumerate(data["d1"]))
    deps = tuple(matrix_from_json(m, field, ranks[k + 1], ranks[k])
                 for k, m in enumerate(data["deps"]))
    c = EpsComplex(field, data["degree"], ranks, d1, deps)
    rep = validate(c)
    if not rep.ok:
        raise ValidationFailed(f"complex invariant {rep}")
    return c


def _endpoint_out(x):
    if isinstance(x, int):
        return x
    return "-inf" if x < 0 else "inf"


_INFINITIES = {"-inf": -math.inf, "inf": math.inf}


def _endpoint_in(x):
    if _is_int(x):
        return x
    if isinstance(x, str) and x in _INFINITIES:
        return _INFINITIES[x]
    raise ValidationFailed(f"interval endpoint must be an integer, "
                           f"\"inf\" or \"-inf\": {x!r}")


def barcode_to_json(bc: Barcode) -> dict:
    out: Dict[str, int] = {}
    for iv, k in sorted(bc.counts().items(), key=lambda p: p[0].sort_key):
        out[str(iv)] = k
    return {
        "intervals": [[_endpoint_out(iv.a), _endpoint_out(iv.b)]
                      for iv in bc.intervals],
        "counts": out,
    }


def barcode_from_json(data: dict, field: Field) -> Barcode:
    _require_keys(data, "barcode", ("intervals",))
    if not isinstance(data["intervals"], list):
        raise ValidationFailed("barcode 'intervals' must be a list")
    for iv in data["intervals"]:
        if not isinstance(iv, list) or len(iv) != 2:
            raise ValidationFailed(f"interval must be a pair [start, end]: {iv!r}")
    ivs = [Interval(_endpoint_in(a), _endpoint_in(b))
           for a, b in data["intervals"]]
    # the assembled sequence spans every finite endpoint, and has as many
    # dimensions in a degree as bars cover it
    finite = [x for iv in ivs for x in (iv.a, iv.b) if isinstance(x, int)]
    if finite:
        check_span(min(finite), max(finite), "barcode")
    _check_dims(assembled_dims(ivs), "sequence dimension")
    return make_barcode(field, ivs)


def element_to_json(g: GradedHomElement) -> dict:
    return {
        "degree": g.degree,
        "window": [g.lo, g.hi],
        "components": {str(i): matrix_to_json(g.component(i))
                       for i in range(g.lo, g.hi + 1)},
    }


def morphism_to_json(h: HatMorphism) -> dict:
    out = {"one": element_to_json(h.f1)}
    if not h.feps.is_zero:
        out["eps"] = element_to_json(h.feps)
    return out


def report_json(payload: dict) -> str:
    return json.dumps({"schema": 1, **payload}, indent=2, sort_keys=True)
