"""Young diagrams and the integer statistics the vertex formulas consume.

A partition is a tuple of row lengths: self[i - 1] is the length of row i
(1-based rows in the cell coordinates below).  Conjugation flips rows and
columns, so callers that think in column heights just conjugate at the
boundary.
"""

from functools import cache


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is the empty diagram."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative, got {parts}")
        return super().__new__(cls, parts)

    def __repr__(self):
        return f"Partition({list(self)})"

    def __str__(self):
        return "[" + ",".join(str(p) for p in self) + "]"

    def part(self, i):
        """Row length at 1-based index i; 0 beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    @property
    def size(self):
        return sum(self)

    @property
    def norm_sq(self):
        return sum(p * p for p in self)

    @property
    def kappa(self):
        """Framing statistic: sum of p_i (p_i - 2i + 1) = 2 sum over cells of (j - i)."""
        return sum(p * (p - 2 * i - 1) for i, p in enumerate(self))

    def conjugate(self):
        if not self:
            return Partition()
        w = self[0]
        cols = [0] * w
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other):
        """True when other fits inside self row by row."""
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))

    def cells(self):
        """All (row, col) cells, 1-based, row-major order."""
        return [(i, j) for i, p in enumerate(self, 1) for j in range(1, p + 1)]

    def arm(self, i, j):
        """Cells strictly to the right of (i, j) in its row."""
        return self.part(i) - j

    def leg(self, i, j):
        """Cells strictly below (i, j) in its column (the transposed arm)."""
        return sum(1 for p in self[i:] if p >= j)


EMPTY = Partition()


@cache
def partitions_of(n):
    """All partitions of n, graded-lexicographically (largest first part first)."""
    if n < 0:
        raise ValueError("partition size must be nonnegative")
    if n == 0:
        return (EMPTY,)
    result = []
    _extend(result, n, n, ())
    return tuple(result)


def _extend(result, remaining, maxpart, prefix):
    """Append to result every partition that starts with prefix and goes on
    with `remaining` boxes in parts of at most maxpart, largest first part
    first.  A module function, not a closure that calls itself, which would
    be a reference cycle left for the cyclic garbage collector."""
    if remaining == 0:
        result.append(Partition(prefix))
        return
    for p in range(min(remaining, maxpart), 0, -1):
        _extend(result, remaining - p, p, prefix + (p,))


def enumerate_up_to(n):
    """All partitions of every size 0..n, each size block complete and ordered."""
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out


def parse_partition(text):
    """Parse the bracket format: "[2,1]" or "[]" for the empty diagram."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition must look like [2,1], got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return EMPTY
    try:
        parts = [int(x) for x in body.split(",")]
    except ValueError:
        raise ValueError(f"partition entries must be integers, got {text!r}") from None
    return Partition(parts)
