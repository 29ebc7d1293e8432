"""Numpy object arrays of scalar jets, the layout vectors and matrices of
jets had before they became one :class:`Jet` with component axes.  Tests
keep them for reference loops that must stay the old arithmetic: numpy's
object ``@``, ``np.outer`` and elementwise operators call the scalar jet
operators entry by entry."""

import numpy as np

from twistorkit.jets import Jet


def objects(jet):
    """The object array of the scalar jets of ``jet``'s entries, each with
    its own copy of the coefficients."""
    out = np.empty(jet.shape, dtype=object)
    lead = (slice(None),) * (jet.base.ndim - 1)
    for idx in np.ndindex(*jet.shape):
        out[idx] = Jet(jet.table, jet.base, jet.coef[lead + idx].copy())
    return out


def const_objects(space, values):
    """The object array of constant jets of ``values``, one jet per entry, at
    the point of a :class:`JetSpace` without a batch."""
    return objects(space.const(np.asarray(values)))
