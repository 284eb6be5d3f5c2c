"""Regenerate the bundled sample inputs under data/.

Each state's counts come from a day-step model run that is exported with the
same increment convention the ingest pipeline inverts, then decorated into
the three input formats: patient-level raw case rows (imported cases, plus a
few rows that exercise the ignore and reject paths), the per-state daily
status pivot, and the event-linked counts file for tn. All three state
series share one date window so they can live in a single daily CSV.

Run from the repository root: python3 scripts/make_sample_data.py
"""

import datetime as dt
import json
import os
import sys

from exosir.fitting import export_observed
from exosir.model import CompartmentState, ModelParams, integrate

START = dt.date(2020, 1, 30)
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")

# Ground truth per state: population, rates, initial case counts. beta_x is
# per-day per-susceptible, so beta_x * N is the expected daily import inflow.
STATES = {
    "kl": dict(name="Kerala", population=35_000_000,
               beta_x=1.0e-7, beta_e=0.22, gamma=0.15, ie0=4, ix0=3),
    "rj": dict(name="Rajasthan", population=68_000_000,
               beta_x=3.0e-8, beta_e=0.30, gamma=0.18, ie0=6, ix0=2),
    "tn": dict(name="Tamil Nadu", population=72_000_000,
               beta_x=5.0e-8, beta_e=0.24, gamma=0.16, ie0=5, ix0=3,
               event_days=range(8, 17)),
}


def simulate_state(cfg):
    n = cfg["population"]
    initial = CompartmentState(s=1.0 - (cfg["ie0"] + cfg["ix0"]) / n,
                               i_e=cfg["ie0"] / n, i_x=cfg["ix0"] / n, r=0.0)
    params = ModelParams(beta_x=cfg["beta_x"], beta_e=cfg["beta_e"], gamma=cfg["gamma"])
    return integrate(initial, params, 1.0, 1024)


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    series = {code: export_observed(simulate_state(cfg), cfg["population"],
                                    state=code, start=START)
              for code, cfg in STATES.items()}
    n_days = min(len(s) for s in series.values()) - 1
    series = {code: export_observed(simulate_state(cfg), cfg["population"],
                                    state=code, start=START, n_days=n_days)
              for code, cfg in STATES.items()}
    dates = series["kl"].dates

    daily_lines = ["date,status,kl,rj,tn"]
    for k, day in enumerate(dates):
        for status, field in (("Confirmed", "daily_confirmed"),
                              ("Recovered", "daily_recovered"),
                              ("Deceased", "daily_deceased")):
            counts = [str(getattr(series[code], field)[k]) for code in ("kl", "rj", "tn")]
            daily_lines.append(f"{day.isoformat()},{status}," + ",".join(counts))
    with open(os.path.join(OUT_DIR, "states_daily.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(daily_lines) + "\n")

    # Raw case rows use dd/mm/yyyy dates. tn's exogenous arrivals inside the
    # event window are event-linked, so they go to events.csv instead.
    raw_lines = ["DateAnnounced,DetectedState,TypeOfTransmission"]
    event_lines = ["date,count"]
    for code, cfg in STATES.items():
        event_days = set(cfg.get("event_days", ()))
        for k, day in enumerate(dates):
            count = series[code].daily_imported[k]
            if count == 0:
                continue
            if k in event_days:
                event_lines.append(f"{day.isoformat()},{count}")
                continue
            stamp = day.strftime("%d/%m/%Y")
            raw_lines.extend(f"{stamp},{cfg['name']},Imported" for _ in range(count))
    # Rows the pipeline must tolerate: locally transmitted and unlabeled cases
    # are ignored by the import tally, and one unparseable date is rejected.
    raw_lines.append(f"{dates[1].strftime('%d/%m/%Y')},Kerala,Local")
    raw_lines.append(f"{dates[2].strftime('%d/%m/%Y')},Tamil Nadu,Local")
    raw_lines.append(f"{dates[2].strftime('%d/%m/%Y')},Rajasthan,")
    raw_lines.append("31/02/2020,Kerala,Imported")
    with open(os.path.join(OUT_DIR, "raw_cases.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(raw_lines) + "\n")

    with open(os.path.join(OUT_DIR, "events_tn.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(event_lines) + "\n")

    populations = {code: cfg["population"] for code, cfg in STATES.items()}
    with open(os.path.join(OUT_DIR, "populations.json"), "w", newline="\n") as fh:
        json.dump(populations, fh, indent=2)
        fh.write("\n")

    print(f"wrote {len(dates)}-day series for {', '.join(STATES)} to {OUT_DIR}")


if __name__ == "__main__":
    sys.exit(main())
