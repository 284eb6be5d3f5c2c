"""Atomic file output and deterministic number formatting for CLI artifacts."""

from __future__ import annotations

import json
import os
import stat

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
    open() would keep them.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        existing = os.stat(path).st_mode
    except OSError:  # not there; any other fault shows when the temp file is made
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
    """CSV of a table given as columns: the header line, then one line per row.

    A numpy column is written through tolist(), which yields Python floats and
    ints, and repr, which writes a float as its shortest round-trip decimal. A
    column that is already a list of str is written as it is.
    """
    lines = [",".join(header)]
    cells = (col if isinstance(col, list) else map(repr, col.tolist()) for col in columns)
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"
