"""Every CLI run in scripts/artifact_digests.py keeps the digest checked in beside this file."""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTING = Path(__file__).with_name("artifact_digests.txt")


def _by_label(text: str) -> dict[str, str]:
    return {line.split()[0]: line for line in text.splitlines()}


def test_artifacts_match_checked_in_digests():
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "scripts" / "artifact_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.main() == 0
    expected, actual = _by_label(LISTING.read_text(encoding="utf-8")), _by_label(out.getvalue())
    differing = [label for label in {**expected, **actual}
                 if expected.get(label) != actual.get(label)]
    assert not differing, f"runs whose exit code or output changed: {', '.join(differing)}"
