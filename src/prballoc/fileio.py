"""The package's file boundary: every output is written atomically; every input is
opened, decoded and checked here, and every id in it is read by one rule.

Files are UTF-8, an input's byte-order mark optional.  CSVs use the csv module's
default (excel) dialect, so rows end in "\\r\\n"; text keeps its own line ends.
"""

import contextlib
import csv
import os

from .errors import DataError

# write_text_atomic hands its text to the file in slices of this many
# characters, so encoding never holds more than one slice's bytes.
WRITE_SLICE = 64 * 1024


@contextlib.contextmanager
def atomic_open(path):
    """A text handle on a uniquely named temporary file beside `path`, which
    replaces `path` only when the block ends without an exception.

    Readers see the old file or the whole new one, concurrent writers never
    share a temporary file, and a failed write leaves no temporary file behind.
    Exclusive creation ("x"), unlike tempfile.mkstemp's 0600 file, gives the
    output the same mode as a plain open().
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text_atomic(path, text):
    """Replace the file at `path` with `text`."""
    with atomic_open(path) as fh:
        for start in range(0, len(text), WRITE_SLICE):
            fh.write(text[start:start + WRITE_SLICE])


def write_csv(path, header, rows):
    """Write the header row, then each row of the iterable `rows` as it comes.
    Cells go in as they are: the csv module writes None as an empty cell and a
    float as its shortest round-trip repr, so every float reads back exactly."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def open_input(path, newline=None):
    """A text handle on the input at `path`, UTF-8 with or without a byte-order mark; a file
    that cannot be opened, read, decoded or parsed as CSV raises DataError("cannot read …")."""
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_text(path):
    """The whole text of an input file."""
    with open_input(path) as fh:
        return fh.read()


def parse_id(text):
    """The int that `text` writes in canonical decimal, str(int(text)) == text; any other
    spelling of it ("01", "+1", "1_0", " 1"), like text int refuses, raises ValueError."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not written as {value}")
    return value


def read_csv(path, start):
    """Yield row(cells) for each non-blank row of a CSV input, where row = start(header).

    Cells come stripped, and start gets None for an empty file.  A row whose cell count
    differs from the header's, a ValueError from start or row, or a file that open_input
    cannot read raises DataError; a row's error names its first line.
    """
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        line = None  # the file line the current row starts on; None at the header
        try:
            header = next(reader, None)
            row = start(None if header is None else [cell.strip() for cell in header])
            line = reader.line_num + 1
            for cells in reader:
                cells = [cell.strip() for cell in cells]
                if any(cells):
                    if len(cells) != len(header):
                        raise ValueError(f"expected {len(header)} cells, found {len(cells)}")
                    yield row(cells)
                line = reader.line_num + 1
        except UnicodeDecodeError:  # a ValueError, but open_input's to report
            raise
        except ValueError as exc:
            where = "" if line is None else f"line {line}: "
            raise DataError(f"{path}: {where}{exc}") from None
