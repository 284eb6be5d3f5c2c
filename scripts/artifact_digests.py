"""Print one digest line per CLI run, to check that a change keeps every output.

Each run calls exosir.cli.main in this process, on the src/ and data/ of the
checkout this script lives in, with a fresh output directory. Its line holds
the run's label, its exit code, and one sha256 over the artifacts (name and
bytes, in name order), the stdout and the stderr. The output directory and the
checkout's path are masked in stdout and stderr, so two checkouts of the same
code print the same lines. The fit runs of EDITED_FITS read copies of data/
with a few lines edited, made in a temporary directory of their own (masked as
well); data/ itself is only read.

Run from anywhere: python3 scripts/artifact_digests.py
Diff its output between two checkouts to see whether any output changed.

tests/artifact_digests.txt holds the expected output, and
tests/test_artifact_digests.py compares each line with it and checks that the
runs together enter every function defined in src/exosir, but for a short list
of library-only ones. When a change is
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
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from exosir import cli  # noqa: E402

DATA = os.path.join(ROOT, "data")


def _fit(data: str) -> list[str]:
    """fit with its three inputs read from the directory data."""
    return ["fit", "--raw", os.path.join(data, "raw_cases.csv"),
            "--daily", os.path.join(data, "states_daily.csv"),
            "--pop-config", os.path.join(data, "populations.json")]


_FIT = _fit(DATA)
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
    # the scalar tail fails, so run_sweep reruns its runs as a batch from the hand-off
    # state, which fails at its own first failing step: exit 3
    "sweep-tail-fails": ["sweep", "--k", "2", "--dt", "20"],
    # the smallest grid: df 4 takes _log_gamma_ratio's math.gamma branch and _tail's lam < 0
    "sweep-k2": ["sweep", "--k", "2"],
    # a scalar-tail run whose peak lies before a checkpoint leaves at that checkpoint
    "sweep-k3-dt0.5": ["sweep", "--k", "3", "--dt", "0.5"],
    # a value out of range on the command line: exit 1 before any work
    "simulate-steps-0": ["simulate", "--steps", "0"],
    "simulate-dt-0": ["simulate", "--dt", "0"],
    "simulate-gamma-neg": ["simulate", "--gamma", "-1"],
    "simulate-nan-rate": ["simulate", "--beta-e", "nan"],
    "simulate-ie0-2": ["simulate", "--ie0", "2"],
    "simulate-huge": ["simulate", "--steps", "2000000000000000000"],
    "network-beta-x-1.5": ["network", "--beta-x", "1.5"],
    "network-m-0": ["network", "--m", "0"],
    "network-n-1": ["network", "--n", "1"],
    "network-ticks-0": ["network", "--max-ticks", "0"],
    "network-reps-0": ["network", "--reps", "0"],
    "network-seed-neg": ["network", "--seed", "-1"],
    "sweep-k1": ["sweep", "--k", "1"],
    "sweep-seed-neg": ["sweep", "--seed", "-1"],
    "fit-tn-events": [*_FIT, "--state", "tn", "--events", os.path.join(DATA, "events_tn.csv")],
    "fit-kl": [*_FIT, "--state", "kl"],
    "fit-rj": [*_FIT, "--state", "rj"],
    "fit-zz": [*_FIT, "--state", "zz"],
    "fit-horizon-0": [*_FIT, "--state", "kl", "--horizon", "0"],
    "fit-horizon-3": [*_FIT, "--state", "rj", "--horizon", "3"],
}
# a field one character over the csv module's default limit, which it cannot read
_LONG_FIELD = "x" * 131_073
# label: (state, {data file: [(pattern, replacement), ...]}), each pair applied with re.sub to
# that file's copy, ^ and $ matching at each line: the warnings, rejects and errors of fit that
# data/ never reaches
EDITED_FITS = {
    # no daily row on 2020-02-10: build_observed fills the day with zeros and warns
    "fit-kl-no-day": ("kl", {"states_daily.csv": [(r"^2020-02-10,.*\n", "")]}),
    # no Recovered row on 2020-02-10: parse_states_daily fills it with 0 and warns
    "fit-kl-no-status": ("kl", {"states_daily.csv": [(r"^2020-02-10,Recovered,.*\n", "")]}),
    # 7 event-linked cases against 6 confirmed on 2020-02-07: kept, and build_observed warns
    "fit-tn-events-high": ("tn", {"events_tn.csv": [(r"^2020-02-07,1$", "2020-02-07,7")]}),
    # no Kerala case in any input, so gamma's regressor is all zeros: exit 3
    "fit-kl-no-cases": ("kl", {"states_daily.csv": [(r"^([^,]*,[^,]*),\d+,", r"\1,0,")],
                               "raw_cases.csv": [(r"^.*,Kerala,.*\n", "")]}),
    # after a blank line, which numbers no row: a short row read as an other-transmission case,
    # then a shorter one and one with an empty DetectedState, both rejected
    "fit-kl-raw-rows": ("kl", {"raw_cases.csv": [(r"^21/02/2020,Kerala,Imported\n",
                                                 "\\g<0>\n22/02/2020,Kerala\n23/02/2020\n"
                                                 "24/02/2020,,Imported\n")]}),
    # four rejected rows (a bad date, then on a date the file lacks an unknown status, a bad
    # count and a negative one), and a short Deceased row, read as 0
    "fit-kl-daily-rows": ("kl", {"states_daily.csv": [
        (r"^2020-02-10,Deceased,0,0,0\n",
         "2020-02-30,Confirmed,1,1,1\n2020-03-25,Active,1,1,1\n2020-03-25,Confirmed,x,1,1\n"
         "2020-03-25,Recovered,-3,1,1\n2020-02-10,Deceased\n")]}),
    # after a blank line, an event row with a bad date and a short one: both rejected
    "fit-tn-event-rows": ("tn", {"events_tn.csv": [(r"^2020-02-08,1\n",
                                                   "\\g<0>\n2020-02-30,1\n2020-02-12\n")]}),
    # an empty event file is no events
    "fit-tn-empty-event": ("tn", {"events_tn.csv": [(r"(?s).+", "")]}),
    # a negative event count: exit 2
    "fit-tn-neg-event": ("tn", {"events_tn.csv": [(r"^2020-02-09,1$", "2020-02-09,-1")]}),
    # a second Confirmed row on 2020-02-10: exit 2
    "fit-kl-dup-date": ("kl", {"states_daily.csv": [(r"^2020-02-10,Confirmed,.*\n",
                                                    "\\g<0>\\g<0>")]}),
    # no TypeOfTransmission column: exit 2
    "fit-kl-no-column": ("kl", {"raw_cases.csv": [(r"^DateAnnounced,DetectedState,\w+$",
                                                  "DateAnnounced,DetectedState,Transmission")]}),
    # kl's column twice, differing in case: exit 2
    "fit-kl-dup-column": ("kl", {"states_daily.csv": [(r"^date,status,kl,rj,tn$",
                                                      "date,status,kl,rj,tn,KL")]}),
    # an empty daily file: exit 2
    "fit-kl-empty-daily": ("kl", {"states_daily.csv": [(r"(?s).+", "")]}),
    # after a blank line, a daily row the csv module cannot read: exit 2, naming the row
    "fit-kl-long-field": ("kl", {"states_daily.csv": [(r"^2020-02-10,Deceased,0,0,0\n",
                                                      f"\\g<0>\n2020-02-10,{_LONG_FIELD}\n")]}),
    # an event header the csv module cannot read: exit 2, naming row 1
    "fit-tn-long-header": ("tn", {"events_tn.csv": [(r"^date,count$",
                                                    f"date,count,{_LONG_FIELD}")]}),
    # no Kerala case imported: beta_x is fixed at 0, with a warning
    "fit-kl-local": ("kl", {"raw_cases.csv": [(r"^(.*,Kerala),Imported$", r"\1,Local")]}),
    # no endogenous case on the first day: a warning
    "fit-kl-first-zero": ("kl", {"states_daily.csv": [(r"^(2020-01-30,Confirmed),4,",
                                                      r"\1,0,")]}),
    # a population too small for the counts: ScaleError, exit 2
    "fit-kl-pop-100": ("kl", {"populations.json": [(r'"kl": \d+', '"kl": 100')]}),
    # one run per load_populations error: exit 2
    "fit-kl-pop-true": ("kl", {"populations.json": [(r"(?s).+", "true")]}),
    "fit-kl-pop-zero": ("kl", {"populations.json": [(r'"kl": \d+', '"kl": 0')]}),
    "fit-kl-pop-repeat": ("kl", {"populations.json": [(r'"tn": \d+', '\\g<0>,\n  "KL": 1')]}),
    "fit-kl-pop-list": ("kl", {"populations.json": [(r"(?s).+", "[]")]}),
    "fit-kl-pop-broken": ("kl", {"populations.json": [(r"(?s).+", "{")]}),
    # header-only daily and raw files: no data rows, exit 2
    "fit-kl-no-rows": ("kl", {"states_daily.csv": [(r"(?s)\n.+", "\n")],
                              "raw_cases.csv": [(r"(?s)\n.+", "\n")]}),
    # two days of daily rows and no raw rows: too short a series to fit
    "fit-kl-two-days": ("kl", {"states_daily.csv": [(r"(?s)^2020-02-01,.+", "")],
                               "raw_cases.csv": [(r"(?s)\n.+", "\n")]}),
    # an events file and a raw file that begin with a blank line
    "fit-tn-blank-event": ("tn", {"events_tn.csv": [(r"\A", "\n")]}),
    "fit-kl-blank-raw": ("kl", {"raw_cases.csv": [(r"\A", "\n")]}),
}


def edited_fit(copies: str, label: str, state: str, edits) -> list[str]:
    """The fit argv of one EDITED_FITS entry, on a copy of data/ made in copies/label."""
    data = os.path.join(copies, label)
    os.mkdir(data)
    for name in os.listdir(DATA):
        with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
            text = fh.read()
        for pattern, replacement in edits.get(name, ()):
            text, count = re.subn(pattern, replacement, text, flags=re.MULTILINE)
            if not count:
                raise ValueError(f"{label}: {pattern!r} matches no line of {name}")
        with open(os.path.join(data, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    events = ["--events", os.path.join(data, "events_tn.csv")] if state == "tn" else []
    return [*_fit(data), "--state", state, *events]


def digest(argv, copies: str) -> tuple[int, str]:
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
            text = text.replace(out, "<out>").replace(copies, "<copies>").replace(ROOT, "<root>")
            sha.update(text.encode() + b"\0")
    return code, sha.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as copies:
        runs = {**RUNS, **{label: edited_fit(copies, label, *entry)
                           for label, entry in EDITED_FITS.items()}}
        for label, argv in runs.items():
            code, sha = digest(argv, copies)
            print(f"{label:<18} {code} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
