"""The plot CSV format, shared by ``reportio`` and its helper processes.

Segment ``(lo, hi, a, b, c)`` has ``PLOT_POINTS_PER_SEGMENT`` dense rows
at x = lo + (hi - lo) * j / (PLOT_POINTS_PER_SEGMENT - 1), with F =
(a*x + b)*x + c in ``QuadraticSegment.value``'s operation order.  All but
the last segment end in a knot row at hi, and in a second, flagged as the
next segment, where the next segment's F differs by more than
``KNOT_MATCH_TOL`` (relative).  A reference adds G, which the caller
computes at :func:`segment_xs`.

Run as a script, it writes to standard output the rows of the segments
that :func:`write_input` wrote to standard input: the byte length of the
heads, as 8 little-endian bytes; the heads, a marshalled list that holds
each segment's :func:`segment_text` index, ``seg`` and ``after`` and the
count of its G values (None without a reference); then the G values of
every segment in order, as native float64, which round-trip bit for bit.
It imports only the standard library, so a helper interpreter starts in
milliseconds.
"""

import marshal
import sys
from array import array

#: Dense evaluation points per segment.
PLOT_POINTS_PER_SEGMENT = 200

#: Knot values closer than this (relative) collapse to a single row.
KNOT_MATCH_TOL = 1e-9

#: Each dense row's j as a float, which multiplies faster and rounds the same.
_STEPS = [float(j) for j in range(PLOT_POINTS_PER_SEGMENT)]


def header(with_reference: bool) -> bytes:
    return ("x,F," + ("G," if with_reference else "") + "segment_index,is_knot\r\n").encode()


def segment_xs(lo: float, hi: float, knot: bool) -> list:
    """The x of each dense row of a segment on [lo, hi], then, with a
    ``knot``, hi."""
    width, last = hi - lo, _STEPS[-1]
    xs = [lo + width * j / last for j in _STEPS]
    return xs + [hi] if knot else xs


def segment_text(index: int, seg: tuple, after, gs) -> str:
    """Rows of segment ``index``, ``seg`` being its (lo, hi, a, b, c) and
    ``after`` the next segment's (a, b, c), or None for the last.  ``gs``
    holds G at ``segment_xs``, or is None without a reference."""
    lo, hi, a, b, c = seg
    xs = segment_xs(lo, hi, knot=False)
    tail = f",{index},0\r\n"
    if gs is None:
        lines = [f"{x!r},{(a * x + b) * x + c!r}{tail}" for x in xs]
    else:
        lines = [f"{x!r},{(a * x + b) * x + c!r},{g!r}{tail}" for x, g in zip(xs, gs)]
    if after is not None:
        g = "" if gs is None else f",{gs[-1]!r}"
        left, right = [(p * hi + q) * hi + r for p, q, r in ((a, b, c), after)]
        lines.append(f"{hi!r},{left!r}{g},{index},1\r\n")
        if abs(left - right) > KNOT_MATCH_TOL * max(1.0, abs(left)):
            lines.append(f"{hi!r},{right!r}{g},{index + 1},1\r\n")
    return "".join(lines)


def write_input(out, heads: list, references) -> None:
    """Write segments for the script to format into the binary file
    ``out``.  ``heads`` holds each segment's (index, seg, after), as
    :func:`segment_text` takes them; ``references`` yields, head by head,
    the segment's G at :func:`segment_xs`, or is None without a
    reference.  Each segment's G values are written as they come."""
    encoded = marshal.dumps([
        (index, seg, after,
         None if references is None else PLOT_POINTS_PER_SEGMENT + (after is not None))
        for index, seg, after in heads
    ])
    out.write(len(encoded).to_bytes(8, "little"))
    out.write(encoded)
    for gs in references or ():
        array("d", gs).tofile(out)


def read_input(stream):
    """Yield the :func:`segment_text` arguments of each segment that
    :func:`write_input` wrote to the binary file ``stream``."""
    # one read of the heads: marshal.load on a file reads it a few bytes per call
    heads = marshal.loads(stream.read(int.from_bytes(stream.read(8), "little")))
    values = array("d")
    values.frombytes(stream.read())
    start = 0
    for index, seg, after, count in heads:
        gs = None
        if count is not None:
            gs, start = values[start:start + count], start + count
        yield index, seg, after, gs


if __name__ == "__main__":
    for args in read_input(sys.stdin.buffer):
        sys.stdout.buffer.write(segment_text(*args).encode())
