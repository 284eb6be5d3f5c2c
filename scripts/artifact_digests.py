"""Print one digest line per CLI run, to check that a change keeps every output.

Each run calls exosir.cli.main in this process, on the src/ and data/ of the
checkout this script lives in, with a fresh output directory. Its line holds
the run's label, its exit code, and one sha256 over the artifacts (name and
bytes, in name order), the stdout and the stderr. The output directory and the
checkout's path are masked in stdout and stderr, so two checkouts of the same
code print the same lines.

Run from anywhere: python3 scripts/artifact_digests.py
Diff its output between two checkouts to see whether any output changed.

tests/artifact_digests.txt holds the expected output, and
tests/test_artifact_digests.py compares each line with it. When a change is
meant to alter an artifact, regenerate the file with
python3 scripts/artifact_digests.py > tests/artifact_digests.txt
and list the old and new lines of every run that moved in CHANGES.md. The fit
and sweep lines hash slopes computed with numpy's float64 dot product and
least squares, so, like GOLDEN_FIT in tests/test_cli.py, they assume these
round as on x86-64.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from exosir import cli  # noqa: E402

DATA = os.path.join(ROOT, "data")
_FIT = ["fit", "--raw", os.path.join(DATA, "raw_cases.csv"),
        "--daily", os.path.join(DATA, "states_daily.csv"),
        "--pop-config", os.path.join(DATA, "populations.json")]
_GRID = ["--beta-x", "0.1,0.5,0.9", "--beta-e", "0.1,0.5,0.9", "--gamma", "0.1,0.5,0.9"]
RUNS = {
    "simulate-exo": ["simulate", "--beta-x", "0.002", "--beta-e", "0.35", "--ie0", "1e-4",
                     "--ix0", "1e-4", "--steps", "2000"],
    "simulate-sir": ["simulate", "--model", "sir", "--beta-e", "0.35", "--i0", "0.01"],
    # exact zeros, values below 1e-5 and values in [1e-5, 1e-4), where repr and
    # fixed notation part ways
    "simulate-ie0-1e-7": ["simulate", "--beta-x", "0", "--ie0", "1e-7", "--ix0", "0",
                          "--steps", "400"],
    "simulate-bad-s0": ["simulate", "--s0", "0.5"],
    # the implied s0 is NaN too: exit 1, and the non-finite message of the state check
    "simulate-nan-ie0": ["simulate", "--ie0", "nan"],
    # one step is clamped into [0, 1]; the run goes on and exits 0
    "simulate-clamp": ["simulate", "--beta-x", "0.41", "--beta-e", "2.16", "--gamma", "1.58",
                       "--dt", "1", "--ie0", "1e-4", "--ix0", "0", "--steps", "200"],
    # an undershoot beyond the clamp band at step 5: exit 3
    "simulate-exit3": ["simulate", "--beta-x", "1.49", "--beta-e", "1.98", "--gamma", "1.76",
                       "--dt", "1", "--ie0", "1e-4", "--ix0", "1e-4", "--steps", "200"],
    # the step overflows to inf and NaN: exit 3, and the message of the step check
    "simulate-nonfinite": ["simulate", "--beta-e", "1e200", "--dt", "1", "--steps", "3"],
    # a usage error: exit 1, and the usage text of cli._Parser.error
    "simulate-bogus": ["simulate", "--bogus"],
    "network-grid": ["network", *_GRID, "--reps", "2"],
    "network-n600-m2": ["network", "--n", "600", "--m", "2", "--reps", "2"],
    "sweep-k15-seed25": ["sweep", "--k", "15", "--seed", "25"],
    "sweep-k15-seed26": ["sweep", "--k", "15", "--seed", "26"],
    "sweep-k12-dt0.5": ["sweep", "--k", "12", "--dt", "0.5"],
    "sweep-nonfinite": ["sweep", "--k", "3", "--dt", "1e200"],
    # a run still rising after the last horizon doubling: exit 3, before the OLS
    "sweep-horizon": ["sweep", "--k", "2", "--dt", "0.001"],
    "fit-tn-events": [*_FIT, "--state", "tn", "--events", os.path.join(DATA, "events_tn.csv")],
    "fit-kl": [*_FIT, "--state", "kl"],
    "fit-rj": [*_FIT, "--state", "rj"],
    "fit-zz": [*_FIT, "--state", "zz"],
    "fit-horizon-0": [*_FIT, "--state", "kl", "--horizon", "0"],
    "fit-horizon-3": [*_FIT, "--state", "rj", "--horizon", "3"],
}


def digest(argv) -> tuple[int, str]:
    """(exit code, sha256 over artifacts, masked stdout and masked stderr) of one run."""
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", out])
        sha = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                sha.update(name.encode() + b"\0" + fh.read() + b"\0")
        for text in (stdout.getvalue(), stderr.getvalue()):
            sha.update(text.replace(out, "<out>").replace(ROOT, "<root>").encode() + b"\0")
    return code, sha.hexdigest()


def main() -> int:
    for label, argv in RUNS.items():
        code, sha = digest(argv)
        print(f"{label:<18} {code} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
