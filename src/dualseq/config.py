"""The margin of every hom window.

The margin is a constant, not a setting: the ``dualseq.hom`` module
docstring proves that every margin >= 1 gives both hom spaces exactly.  It
is 3, wider than the bound, so that windows, bases and coset
representatives stay those of earlier releases.  ``DEFAULT.base_margin``
is the same number under the name ``bench/tracer.py`` reads.
"""

from types import SimpleNamespace

MARGIN = 3

DEFAULT = SimpleNamespace(base_margin=MARGIN)
