"""The text front end: error positions around matrix literals, and a round
trip through a writer that varies layout."""

import random
from fractions import Fraction

import pytest

from dualseq import io as dualseq_io
from dualseq.errors import ParseError, ValidationFailed
from dualseq.gen import random_matrix, random_scalar, random_seq
from dualseq.graded import base_window, make_element
from dualseq.hom import get_context, hat
from dualseq.io import parse_document
from dualseq.linalg import Field, Matrix
from dualseq.phantom import Derivation

F2 = Field(2)
F5 = Field(5)
Q = Field(None)

HEAD = "field 5\nseq A {\n  window 0 1\n  dims 2 2\n"


@pytest.mark.parametrize("body,line,col,msg", [
    # an error inside a matrix literal
    ("  map 0 [[1, 2],\n         [3, x]]\n}\n", 6, 14, "expected number, found 'x'"),
    ("  map 0 [[1, 2], [3 4]]\n}\n", 5, 21, "expected punct, found '4'"),
    ("  map 0 [[1, 2], [3, 4%]]\n}\n", 5, 23, "unexpected character '%'"),
    # an error just after one
    ("  map 0 [[1, 2], [3, 4]] ,\n}\n", 5, 26, "expected word, found ','"),
    ("  map 0 [[1, 2], [3, 4]]]\n}\n", 5, 25, "expected word, found ']'"),
    # a matrix spread over several lines
    ("  map 0 [\n    [1, 2],\n    [3, 4],\n    [0, 1]\n  ]\n}\n", 5, 9,
     "matrix must be 2 x 2"),
    ("  map 0 [\n    [1, 2],\n\t[3, 4]\r\n  ] bogus 1\n}\n", 8, 5,
     "unknown sequence key 'bogus'"),
    # a comment inside a matrix
    ("  map 0 [[1, 2], # first row\n         [3, 4]] # done\n  mystery\n}\n", 7, 3,
     "unknown sequence key 'mystery'"),
    # the end of the document inside a matrix
    ("  map 0 [[1, 2],\n         [3,", 6, 12, "unexpected end of document"),
    ("  map 0 [[1, 2],\n  ", 5, 16, "unexpected end of document"),
    ("  map 0 [[1, 2],\n  [3, 4]]", 6, 9, "unexpected end of document"),
    # a ragged row
    ("  map 0 [[1, 2], [3]]\n}\n", 5, 9, "matrix must be 2 x 2"),
    ("  map 0 [[1], [3, 4]]\n}\n", 5, 9, "matrix must be 2 x 2"),
    # a literal where something else belongs, or inside another bracket
    ("  map [[1, 2], [3, 4]]\n}\n", 5, 7, "expected number, found '['"),
    ("  map 0 [[1, 2], [3, 4]] tails [[1]] zero\n}\n", 5, 32, "expected word, found '['"),
    ("  map 0 [[[1, 2]], [3, 4]]\n}\n", 5, 11, "expected number, found '['"),
])
def test_matrix_literal_error_positions(body, line, col, msg):
    with pytest.raises(ParseError) as exc:
        parse_document(HEAD + body)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"line {line}, col {col}: {msg}"


@pytest.mark.parametrize("text,line,col,msg", [
    ("field Q\nseq A { window 0 1 dims 0 2 map 0 [[], [], []] }", 2, 35,
     "matrix must be 2 x 0"),
    ("field Q\nseq A { window 0 1 dims 2 1 map 0 [] }", 2, 35, "matrix must be 1 x 2"),
])
def test_empty_matrix_literal_shape(text, line, col, msg):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == f"line {line}, col {col}: {msg}"


_V = "seq V { interval 0 1 }\n"


@pytest.mark.parametrize("text,line,col,msg", [
    # a key of a block given twice: a traceback or a silent override before
    ("seq V { window 0 1 dims 1 1 window 0 3 }", 2, 29, "repeated window"),
    ("seq V { window 0 1 dims 1 1 map 0 [[1]] window 5 6 }", 2, 41, "repeated window"),
    ("seq V { window 0 1 dims 1 1 map 0 [[1]] map 0 [[0]] }", 2, 41, "repeated map 0"),
    ("seq V { window 0 1 dims 1 1 dims 1 1 }", 2, 29, "repeated dims"),
    ("seq V { window 0 1 dims 1 1 tails zero zero tails iso iso }", 2, 45,
     "repeated tails"),
    ("seq V { window 0 3 dims 1 1 1 1 interval 0 0 }", 2, 33,
     "interval must be the only key"),
    ("complex C { ranks 1 1 d1 0 [[0]] degree 1 }", 2, 34,
     "degree must precede d1 and deps"),
    ("complex C { ranks 1 1 deps 0 [[0]] degree 1 }", 2, 36,
     "degree must precede d1 and deps"),
    ("complex C { degree 0 degree 1 ranks 1 1 }", 2, 22, "repeated degree"),
    ("complex C { ranks 1 1 1 d1 0 [[0]] ranks 1 1 }", 2, 36, "repeated ranks"),
    ("complex C { ranks 1 1 d1 0 [[0]] d1 0 [[0]] }", 2, 34, "repeated d1 0"),
    ("complex C { ranks 1 1 deps 0 [[0]] deps 0 [[0]] }", 2, 36, "repeated deps 0"),
    (_V + "mor h : V -> V { window 0 1 one 0 [[1]] one 1 [[1]] window 0 3 }", 3, 53,
     "repeated window"),
    (_V + "mor h : V -> V { window 0 1 window 0 3 }", 3, 29, "repeated window"),
    (_V + "mor h : V -> V { tails zero tails constant }", 3, 29, "repeated tails"),
    (_V + "mor h : V -> V { window 0 1 one 0 [[1]] one 0 [[2]] }", 3, 41,
     "repeated one 0"),
    (_V + "mor h : V -> V { window 0 1 eps 0 [[1]] eps 0 [[2]] }", 3, 41,
     "repeated eps 0"),
])
def test_repeated_key_is_a_parse_error(text, line, col, msg):
    with pytest.raises(ParseError) as exc:
        parse_document("field 5\n" + text)
    assert str(exc.value) == f"line {line}, col {col}: {msg}"


_DIAG = ("seq A { interval 0 0 }\n"
         "mor p : A -> A { window 0 0 one 0 [[1]] }\n"
         "mor z : A -> A { }\n")


@pytest.mark.parametrize("text,line,col,msg", [
    # a second generator or value of the same name used to replace the first,
    # and a value on a name that is no generator was kept and ignored
    (_DIAG + "diagram D { objects A gen f : A -> A = p gen f : A -> A = z }",
     5, 46, "repeated gen f"),
    (_DIAG + "diagram D { objects A gen f : A -> A = p }\n"
     "derivation T on D { D f = z D f = z }", 6, 31, "repeated D f"),
    (_DIAG + "diagram D { objects A gen f : A -> A = p }\n"
     "derivation T on D { D q = z }", 6, 23, "q is not a generator of D"),
])
def test_repeated_or_unknown_generator_is_a_parse_error(text, line, col, msg):
    with pytest.raises(ParseError) as exc:
        parse_document("field 5\n" + text)
    assert str(exc.value) == f"line {line}, col {col}: {msg}"


def test_derivation_refuses_a_value_on_no_generator():
    doc = parse_document("field 5\n" + _DIAG + "diagram D { objects A gen f : A -> A = p }")
    with pytest.raises(ValidationFailed, match="q: not a generator"):
        Derivation(doc.diagrams["D"], {"q": doc.morphism("z")})


def test_comment_inside_a_matrix_is_skipped():
    doc = parse_document(HEAD + "  map 0 [[1, 2], # first row\n [3,\n# between\n 4]]\n}\n")
    assert doc.seq("A").map_at(0).to_lists() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("entry", ["4/5", "1/10"])
def test_denominator_divisible_by_p_fails_validation(entry):
    with pytest.raises(ValidationFailed, match="not invertible mod 5"):
        parse_document(HEAD + f"  map 0 [[1, 2], [3, {entry}]]\n}}\n")


# (rows, cols, literal) of ``map 0``: what the C scanner of ``json`` reads,
# what it refuses (with ``ValueError``, or ``StopIteration`` at a non-ASCII
# digit that starts an entry), and what it never sees
LITERALS = [
    (2, 2, "[[-0, 0], [0, -0]]"),
    (2, 2, "[[1, -12345678901234567890], [-7, 4]]"),
    (2, 2, "[[01, 2], [3, 4]]"),
    (2, 2, "[[-01, 2], [3, 4]]"),
    (2, 2, "[[1, 2], [3, " + "9" * 4301 + "]]"),
    (2, 2, "[ [1 ,\n 2] ,\t[3,\r\n 4 ] ]"),
    (0, 2, "[]"),
    (1, 0, "[[]]"),
    (2, 0, "[[],[]]"),
    (0, 2, "[[]]"),
    (2, 0, "[]"),
    (2, 2, "[[1, 2], [3]]"),
    (2, 2, "[[1, 2, 3], [4, 5, 6]]"),
    (2, 2, "[[1], [2], [3]]"),
    (2, 2, "[[1/0, 2], [3, 4]]"),
    (2, 2, "[[1/2, 2], [-3, 4/3]]"),
    (2, 2, "[[2/4, -0], [6/1, 01]]"),
    (2, 2, "[[\uff13, 2], [3, 4]]"),
    (2, 2, "[[1, -\u0663], [3, 4]]"),
    (2, 2, "[[1, 2\uff13], [3, 4]]"),
    (2, 2, "[[1/\u0663, 2], [3, 4]]"),
]


def _literal_outcome(field, rows, cols, literal):
    """The entries of ``literal`` parsed as a map and their types, or the
    refusal with its message, line and column."""
    text = (f"field {'Q' if field.p is None else field.p}\nseq A {{\n  window 0 1\n"
            f"  dims {cols} {rows}\n  map 0 {literal}\n}}\n")
    try:
        m = parse_document(text).seq("A").map_at(0)
    except (ParseError, ValidationFailed) as e:
        return type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "col", None)
    return m.rows, m.cols, m.data, [type(x) for x in m.data]


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_literal_decoders_agree(monkeypatch, field):
    fast = [_literal_outcome(field, *case) for case in LITERALS]

    def refuse(text, i):
        raise ValueError("no scanner")

    # with the scanner refusing every literal, the str.split decoder reads
    # all; a parser without the scanner reads them so in both runs
    monkeypatch.setattr(dualseq_io, "_SCAN", refuse, raising=False)
    assert [_literal_outcome(field, *case) for case in LITERALS] == fast


def test_integer_literals_go_through_the_scanner(monkeypatch):
    scanned = []

    def scan(text, i, scan=dualseq_io._SCAN):
        scanned.append(text)
        return scan(text, i)

    monkeypatch.setattr(dualseq_io, "_SCAN", scan)
    for case in LITERALS:
        _literal_outcome(F5, *case)
    assert scanned == [lit for _, _, lit in LITERALS if "/" not in lit]


# -- round trip ---------------------------------------------------------------

def _scalar_text(x, field):
    if field.p is not None:
        return str(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class _Writer:
    """Writes values in the document grammar, with random spacing, line
    breaks and comments, so that the parser sees many layouts."""

    def __init__(self, rng, field):
        self.rng = rng
        self.field = field

    def gap(self, newlines=True):
        r = self.rng.random()
        if r < 0.6 or not newlines:
            return self.rng.choice([" ", "  ", "\t", " \t "])
        if r < 0.85:
            return self.rng.choice(["\n", "\n  ", " \r\n\t"])
        return f"  # {self.rng.choice(['note', 'x = [1, 2]', ''])}\n  "

    def comma(self) -> str:
        return self.rng.choice(["", " "]) + "," + self.gap()

    def matrix(self, m: Matrix) -> str:
        rows = ["[" + self.comma().join(_scalar_text(x, self.field) for x in m.row(r)) + "]"
                for r in range(m.rows)]
        return "[" + self.rng.choice(["", " ", "\n"]) + self.comma().join(rows) + "]"

    def seq(self, name, v) -> str:
        g = self.gap
        out = [f"seq{g(False)}{name}{g()}{{", f"window{g()}{v.lo}{g()}{v.hi}",
               "dims" + "".join(g() + str(d) for d in v.dims)]
        for k, m in enumerate(v.maps):
            if not m.is_zero or self.rng.random() < 0.3:
                out.append(f"map{g()}{v.lo + k}{g()}{self.matrix(m)}")
        out.append(f"tails{g()}{v.left_tail.name.lower()}{g()}"
                   f"{v.right_tail.name.lower()}")
        return g().join(out) + g() + "}"

    def morphism(self, name, src, dst, one, eps) -> str:
        """``one`` has constant tails, ``eps`` zero tails beyond its window."""
        g = self.gap
        lo, hi = min(one.lo, eps.lo) - 1, max(one.hi, eps.hi) + 1
        out = [f"mor{g(False)}{name}{g()}:{g()}{src}{g()}->{g()}{dst}{g()}{{",
               f"window{g()}{lo}{g()}{hi}"]
        for key, el in (("one", one), ("eps", eps)):
            for i in range(lo, hi + 1):
                c = el.component(i)
                if not c.is_zero:
                    out.append(f"{key}{g()}{i}{g()}{self.matrix(c)}")
        out.append(f"tails{g()}constant")
        return g().join(out) + g() + "}"


def _entry_types(m: Matrix, field: Field) -> bool:
    want = int if field.p is not None else Fraction
    return all(type(x) is want for x in m.data)


def _random_morphism_parts(rng, v, w):
    """A random morphism ``v -> w`` and a random eps part supported on the
    base window."""
    f = v.field
    blo, bhi = base_window(v, w, 0)

    def zero(i):
        return Matrix.zeros(f, w.dim(i), v.dim(i))

    one = make_element(v, w, 0, blo, bhi, zero)
    for b in get_context(v, w).hom_basis():
        one = one + b.scale(random_scalar(rng, f))
    comps = {i: random_matrix(rng, f, w.dim(i), v.dim(i)) for i in range(blo, bhi + 1)}
    eps = make_element(v, w, 0, blo, bhi, lambda i: comps[i] if i in comps else zero(i))
    return one, eps


@pytest.mark.parametrize("seed", range(12))
def test_text_round_trip(seed):
    rng = random.Random(900 + seed)
    field = [F2, F5, Q][seed % 3]
    w = _Writer(rng, field)
    v1 = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
    while v1.is_zero_object:     # so that the endomorphism e has entries
        v1 = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
    v2 = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
    mors = {"f": ("V1", "V2", _random_morphism_parts(rng, v1, v2)),
            "e": ("V1", "V1", _random_morphism_parts(rng, v1, v1))}
    head = f"# round trip {seed}\nfield{w.gap(False)}{'Q' if field.p is None else field.p}"
    decls = [w.seq("V1", v1), w.seq("V2", v2)]
    decls += [w.morphism(name, src, dst, *parts) for name, (src, dst, parts) in mors.items()]
    text = head + "".join(w.gap() + "# between\n" + d for d in decls) + w.gap()
    doc = parse_document(text)
    assert doc.seq("V1") == v1 and doc.seq("V2") == v2
    for name in ("V1", "V2"):
        assert all(_entry_types(m, field) for m in doc.seq(name).maps)
    for name, (_, _, (one, eps)) in mors.items():
        h = doc.morphism(name)
        assert h == hat(one, eps)
        for part in (h.f1, h.feps):
            assert all(_entry_types(part.component(i), field)
                       for i in range(part.lo - 2, part.hi + 3))
