"""Fixed constants of the package: constants, not settings.

``MARGIN`` is the margin of every hom window.  The ``dualseq.hom`` module
docstring proves that every margin >= 1 gives both hom spaces exactly, and
that margin 0 can miss a constraint of ``Hom_S``, so the margin is that
bound, 1.  ``DEFAULT.base_margin`` is the same number under the name
``bench/tracer.py`` reads.

``MAX_SPAN`` bounds the degrees read from input: a document's ``window``
and ``interval`` (rays included), the degrees of a complex in a document
or a JSON payload, a JSON sequence window, the finite endpoints of a JSON
barcode, and the degree ``n`` of a ``truncate`` command.  Each such window spans at most ``MAX_SPAN`` degrees, and every
finite degree lies in ``[-MAX_SPAN, MAX_SPAN]``.  Everything the package
allocates grows with a span, and a hom window or a cone spans the distance
between two objects, so the bound on degrees caps those too.  Input past
either bound is refused (``ValidationFailed``, exit 1) before anything is
built for it.
"""

from types import SimpleNamespace

MARGIN = 1

MAX_SPAN = 10_000

DEFAULT = SimpleNamespace(base_margin=MARGIN)
