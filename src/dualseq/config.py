"""Fixed constants of the package: constants, not settings.

``MARGIN`` is the margin of every hom window.  The ``dualseq.hom`` module
docstring proves that every margin >= 1 gives both hom spaces exactly, and
that margin 0 can miss a constraint of ``Hom_S``, so the margin is that
bound, 1.  ``DEFAULT.base_margin`` is the same number under the name
``bench/tracer.py`` reads.

``MAX_SPAN`` bounds the number of degrees of every window read from input:
a document's ``window`` and finite ``interval``, a JSON sequence window,
the finite endpoints of a JSON barcode together, and the degrees a
``truncate`` command spans.  Everything the package allocates grows with
such a span, so a larger one is refused (``ValidationFailed``, exit 1)
before anything is built for it.
"""

from types import SimpleNamespace

MARGIN = 1

MAX_SPAN = 10_000

DEFAULT = SimpleNamespace(base_margin=MARGIN)
