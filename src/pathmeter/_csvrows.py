"""CSV row formatting, shared by pathmeter.cli and its row helpers.

One formatter writes every data row of a CSV table. The writing process
calls write_rows for its own block of rows, and each helper process runs
this file as a script,

    python -I -S _csvrows.py ROWS NCOLS STEP

reading its block's columns from stdin as native float64 bytes, one
column after another, and writing their rows to stdout. A memoryview's
tolist() gives the same floats as the array's, and both sides run the
same interpreter, so the bytes are those one process would write. The
file imports neither numpy nor the package, so a helper starts in a few
tens of milliseconds.
"""

import sys


def write_rows(out, cols, lo, hi, step):
    """Write rows lo:hi of the columns to the text stream out, formatting
    step rows of every column at a time."""
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        texts = [map(repr, col[a:b].tolist()) for col in cols]
        out.writelines(",".join(row) + "\n" for row in zip(*texts))


def main(argv) -> None:
    rows, ncols, step = map(int, argv)
    data = memoryview(sys.stdin.buffer.read()).cast("d")
    if len(data) != rows * ncols:
        raise SystemExit(f"expected {rows * ncols} float64 values on stdin, got {len(data)}")
    cols = [data[i * rows:(i + 1) * rows] for i in range(ncols)]
    with open(sys.stdout.fileno(), "w", encoding="utf-8", closefd=False) as out:
        write_rows(out, cols, 0, rows, step)


if __name__ == "__main__":
    main(sys.argv[1:])
