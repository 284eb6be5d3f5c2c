"""Atomic file output and deterministic number formatting for CLI artifacts."""

from __future__ import annotations

import json
import os
import stat

import numpy as np

OUT_DIR_ENV = "EXOSIR_OUT_DIR"


def resolve_out_dir(flag_value: str | None) -> str:
    """--out beats the environment default, which beats the working directory."""
    out = flag_value or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials.

    The temp file is created with mode 0o666, which the kernel reduces by the
    umask, so it gets the mode open() gives a new file. When path is an existing
    regular file, the temp file takes that file's permission bits instead, as
    open() would keep them. A symlink is resolved first, so the write goes
    through it to its target, as open() would, and the link stays a link; a
    link loop is an OSError, as in open().
    """
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        existing = os.stat(path).st_mode
    except FileNotFoundError:  # a new file; a link loop raises here, as in open()
        existing = 0
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if stat.S_ISREG(existing):
                os.chmod(tmp, existing & 0o777)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def csv_columns_text(header, columns) -> str:
    """CSV of a table given as numpy columns: the header line, then one line per row.

    Each value is written as repr writes it: an int in decimal, a float as its
    shortest round-trip decimal.
    """
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_column_texts, columns))))
    return "\n".join(lines) + "\n"


def _column_texts(column) -> list[str]:
    """repr of each value of a numeric numpy column, through one orjson call.

    orjson (Ryu) and repr (Gay) both write a float's shortest round-trip digits,
    nearest to the true value; they differ only in how they write an exponent,
    which repr does exactly when the magnitude lies below 1e-4 or at 1e16 and
    above. Those values, NaN and the infinities (which orjson writes as null)
    are given to repr. Zeros and the ints below 1e16 read the same in both.
    """
    import orjson

    values = column.tolist()
    # the slice keeps an empty column empty, where "".split(",") gives [""]
    texts = orjson.dumps(values).decode()[1:-1].split(",")[:len(values)]
    magnitude = np.abs(column)
    for i in np.flatnonzero(~(magnitude >= 1e-4) & (column != 0) | (magnitude >= 1e16)).tolist():
        texts[i] = repr(values[i])
    return texts


def json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"
