"""The value codec of the cgsim-mp result hand-back.

A worker's sink payload is a run of stream elements.  A run of numpy
numeric scalars pickles one object per element; the same run as one
typed ndarray pickles as a header plus a byte copy, 50-100x faster on
both ends.  :func:`pack_values` makes that switch only when it is
exact: every element has the same numpy numeric scalar ``type()``, so
iterating the array (``list.extend``) gives back elements of that type
with the same bytes — what pickling each scalar would have delivered
(pickle itself turns ``longlong`` into ``int64``, scalar or array
alike).  Anything else — Python scalars, ndarray blocks, mixed types,
dates, strings, ``longdouble`` — passes through untouched and pickles.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_values"]

#: Numeric types an array cannot carry exactly: ``timedelta64`` keeps
#: its unit in the dtype, not the type, and storing a ``longdouble``
#: scalar into an array drops the bytes past its 80-bit value.
_INEXACT = (np.timedelta64, np.longdouble, np.clongdouble)


def pack_values(values):
    """One typed ndarray for a homogeneous run of numpy numeric
    scalars; *values* itself otherwise.  (A numeric subclass whose
    dtype names another type also passes through.)"""
    if len(values) == 0:
        return values
    types = set(map(type, values))
    if len(types) != 1:
        return values
    t = types.pop()
    if (not issubclass(t, (np.number, np.bool_)) or issubclass(t, _INEXACT)
            or np.dtype(t).type is not t):
        return values
    return np.fromiter(values, dtype=t, count=len(values))

