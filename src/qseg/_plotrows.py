"""CSV text of plot rows, shared by ``reportio`` and its helper processes.

Run as a script, it formats the segments that ``reportio`` sends as doubles
on standard input and writes their rows to standard output.  It imports
only the standard library, so a helper interpreter starts in milliseconds.

The stream holds, per segment, four doubles -- the segment index, the
number of knot rows that end it, the row count and the column count --
then each column's values: x, F and, with a reference, G.
"""

import sys
from array import array

#: Bytes of the four doubles that open each segment in the stream.
HEADER_BYTES = 32


def segment_text(index: int, knots: int, columns: list) -> str:
    """Rows of one segment: dense rows flagged as segment ``index``, then
    ``knots`` knot rows, the second of which belongs to the next segment."""
    dense = len(columns[0]) - knots
    tail = f",{index},0\r\n"
    knot_tails = [f",{index},1\r\n", f",{index + 1},1\r\n"]
    if len(columns) == 3:
        xs, values, gs = columns
        lines = [f"{x!r},{v!r},{g!r}{tail}" for x, v, g in zip(xs[:dense], values[:dense], gs)]
        lines += [f"{x!r},{v!r},{g!r}{t}"
                  for x, v, g, t in zip(xs[dense:], values[dense:], gs[dense:], knot_tails)]
    else:
        xs, values = columns
        lines = [f"{x!r},{v!r}{tail}" for x, v in zip(xs[:dense], values)]
        lines += [f"{x!r},{v!r}{t}" for x, v, t in zip(xs[dense:], values[dense:], knot_tails)]
    return "".join(lines)


def segment_record(index: int, knots: int, columns: list) -> bytes:
    """One segment of the stream the script reads."""
    rows = len(columns[0])
    return array("d", [index, knots, rows, len(columns)] + [v for c in columns for v in c]).tobytes()


def format_stream(source, sink) -> None:
    while header := source.read(HEADER_BYTES):
        index, knots, rows, width = (int(v) for v in array("d", header))
        values = array("d", source.read(8 * rows * width)).tolist()
        columns = [values[c * rows:(c + 1) * rows] for c in range(width)]
        sink.write(segment_text(index, knots, columns).encode())


if __name__ == "__main__":
    format_stream(sys.stdin.buffer, sys.stdout.buffer)
