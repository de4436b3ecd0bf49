"""The one CSV cell format shared by every table the package writes.

A table is a header line followed by one line per row, each ending in a
newline. Real cells, numpy floats included, are written as the round-trip
``repr`` of a Python float (so ``nan`` for untracked values); every other
cell as ``str``.
"""

from typing import Iterable

import numpy as np

_REALS = (float, np.floating)


def csv_text(header: str, rows: Iterable[Iterable]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join([repr(float(x)) if isinstance(x, _REALS) else str(x) for x in row]))
    return "\n".join(lines) + "\n"


def row_values(row) -> list:
    """A dataclass row's fields in declaration order, the order its ``__init__``
    stores them (a shallow ``dataclasses.astuple``, which deep-copies)."""
    return list(vars(row).values())
