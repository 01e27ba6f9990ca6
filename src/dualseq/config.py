"""Fixed constants of the package: constants, not settings.

``MARGIN`` is the margin of every hom window.  The ``dualseq.hom`` module
docstring proves that every margin >= 1 gives both hom spaces exactly, and
that margin 0 can miss a constraint of ``Hom_S``, so the margin is that
bound, 1.  ``DEFAULT.base_margin`` is the same number under the name
``bench/tracer.py`` reads.

``MAX_SPAN`` bounds the degrees read from input: a document's ``window``
and ``interval`` (rays included), the degrees of a complex in a document
or a JSON payload, a JSON sequence window, the finite endpoints of a JSON
barcode, and the degree ``n`` of a ``truncate`` command.  Each such window
spans at most ``MAX_SPAN`` degrees, and every finite degree lies in
``[-MAX_SPAN, MAX_SPAN]``.  Everything the package allocates grows with a
span, and a hom window or a cone spans the distance between two objects,
so the bound on degrees caps those too.

``MAX_DIM`` bounds every dimension of a sequence and every rank of a
complex read from a document or a JSON payload, and the squares of the
dimensions (ranks) of one sequence (complex) sum to at most ``MAX_DIM^2``.
A block between two degrees is a ``d x d`` matrix, so without the first
bound a three-line document with ``dims 100000`` asks for 10^10 entries
the first time a zero map or an identity of that degree is built; without
the second, a 2 KB document with ``dims 1000 999 ... 501`` builds 500
blocks of about 10^6 entries each.  Ten degrees of about 1,000 took 461 MB
to ``decompose``, and ``cone`` of their zero map failed under a 1 GB cap.
Within both bounds, one degree of 1,000, four of about 500 and sixteen of
about 250 took at most 2 s and 180 MB for each of ``decompose``, ``cone``,
``minimize`` and ``truncate`` (F2, 2 vCPUs).  A scrambled 48-bar sequence
with endpoints in ``[-4, 4]`` has dimensions of at most 35 (900 draws).
The same ``MAX_DIM^2`` bounds a whole document: the squares of every
dimension and rank it declares, an ``interval`` counting one per degree,
sum to at most that.  Without it, 400 declarations ``dims 700-k 700`` in
14.7 KB, each within the bounds, filled the shared zero blocks of
``linalg`` and ended in a ``MemoryError`` under a 1 GB cap, and 1,000
``interval -5000 4999`` in 33 KB took 9 s and 175 MB to parse.  No test,
script or benchmark document that parses declares more than ``MAX_DIM^2``
in all (one declaration at the bound), so the bound needs no constant of
its own.

``MAX_HOM_WINDOW`` bounds the coordinates ``N = sum_i dim V^i dim W^i`` of
a hom window, and ``MAX_KERNEL_CELLS`` the entries ``dim Hom_S * N`` of its
dense kernel vectors, one per basis element; ``HomContext`` checks the
first before it eliminates anything and the second before it builds those
vectors.  One degree of dimension ``d`` has ``N = d^2`` coordinates and a
``d^2``-dimensional ``Hom_S``: ``dims 300`` asks for 8.1 * 10^9 entries.
At ``d = 45`` (4.1 * 10^6 entries) ``get_context`` and ``hom_basis`` took
0.3 s and 79 MB, and ``hom --json`` 8.3 s and 906 MB, most of it the JSON
text; the limit admits one degree up to ``d = 53``.  Over 900 scrambled
48-bar pairs (endpoints in ``[-4, 4]``, seeds 1, 7 and 21) ``N`` reached
5,749 and the kernel 3.5 * 10^6 entries, so both limits leave them room.

Input past any of these bounds is refused (``ValidationFailed``, exit 1)
with a message that names the limit, before anything is built for it.
"""

from types import SimpleNamespace

MARGIN = 1

MAX_SPAN = 10_000

MAX_DIM = 1_000

MAX_HOM_WINDOW = 10_000

MAX_KERNEL_CELLS = 8_000_000

DEFAULT = SimpleNamespace(base_margin=MARGIN)
