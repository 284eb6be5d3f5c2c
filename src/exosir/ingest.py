"""Parsers for the three observed-data sources and the per-state daily series.

Three inputs feed the fit pipeline, and each parses to one per-date table:
patient-level raw case rows (date, state, transmission type) to one state's
imported count, a per-state daily pivot (date, status, one column per state
code) to one state's statuses, and event-linked rows to their count. Parsing
never drops rows silently: every input row is read into the table, skipped as
another state's or a non-imported case, or rejected in the report.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import json
from dataclasses import dataclass, field

from .errors import (ConfigError, DuplicateDateError, NegativeCountError,
                     ParameterError, SchemaError)

STATE_NAMES = {"kl": "Kerala", "rj": "Rajasthan", "tn": "Tamil Nadu"}
STATUSES = ("confirmed", "recovered", "deceased")


@dataclass
class IngestReport:
    """Reject and warning channels for one parsing pass."""

    rejects: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def reject(self, row_number: int, reason: str) -> None:
        self.rejects.append((row_number, reason))

    def warn(self, message: str) -> None:
        self.warnings.append(message)


@dataclass(frozen=True)
class ObservedSeries:
    """Aligned per-day counts for one state; dates are gap-free and ascending."""

    state: str
    dates: tuple[dt.date, ...]
    daily_confirmed: tuple[int, ...]
    daily_recovered: tuple[int, ...]
    daily_deceased: tuple[int, ...]
    daily_imported: tuple[int, ...]
    daily_event_linked: tuple[int, ...]
    population_n: int

    def __post_init__(self):
        if self.population_n <= 0:
            raise ConfigError(f"population_n must be positive, got {self.population_n!r}")
        n = len(self.dates)
        if not n:
            raise ParameterError("an observed series needs at least one date")
        for name in ("daily_confirmed", "daily_recovered", "daily_deceased",
                     "daily_imported", "daily_event_linked"):
            series = getattr(self, name)
            if len(series) != n:
                raise ParameterError(f"{name} has {len(series)} entries for {n} dates")
            for date, count in zip(self.dates, series):
                if count < 0:
                    raise NegativeCountError(f"negative {name} count {count} on {date}")
        for a, b in zip(self.dates, self.dates[1:]):
            if (b - a).days != 1:
                raise ParameterError(f"dates must be gap-free and ascending: {a} -> {b}")


def parse_date(text: str) -> dt.date:
    """ISO-8601 first, then day/month/year."""
    text = text.strip()
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        return dt.datetime.strptime(text, "%d/%m/%Y").date()
    except ValueError:
        raise ValueError(f"unparseable date {text!r}") from None


def _rows(stream, where: str, required: tuple[str, ...], report: IngestReport,
          empty_ok: bool = False):
    """(row number, date, [field of each other required column]) per data row.

    The header is the first row that is not blank, and is row 1. Required
    columns are matched ignoring case and surrounding spaces, and extra columns
    are ignored. A required name that no header column matches is a schema
    error, and so is one that more than one matches, since no column can be
    preferred. An input with no header row (empty, or blank lines only) is a
    schema error unless empty_ok. Blank lines number no row, and a short row
    reads its missing fields as "". The first required column is the row's
    date: each distinct text is read once per input, and a row whose date
    cannot be read goes to report as rejected. A row the csv module cannot read
    (an oversized field, a bare carriage return in an unquoted field) is a
    schema error naming the row.
    """
    reader = filter(None, csv.reader(stream))
    row_number = 0
    try:
        header = next(reader, None)
        row_number = 1
        if header is None:
            if empty_ok:
                return
            raise SchemaError(f"{where}: empty input, no header row")
        columns = []
        for want in required:
            found = [i for i, name in enumerate(header) if name.strip().lower() == want.lower()]
            if not found:
                raise SchemaError(f"{where}: missing required column {want!r}")
            if len(found) > 1:
                raise SchemaError(f"{where}: column {want!r} appears more than once")
            columns.append(found[0])
        date_column, *columns = columns
        # an unparseable text is not cached, and every row that carries it is rejected
        parse = functools.lru_cache(maxsize=None)(parse_date)
        for row in reader:
            row_number += 1
            try:
                date = parse(row[date_column] if date_column < len(row) else "")
            except ValueError as exc:
                report.reject(row_number, str(exc))
                continue
            yield row_number, date, [row[i] if i < len(row) else "" for i in columns]
    except csv.Error as exc:
        raise SchemaError(f"{where} row {row_number + 1}: {exc}") from None


def parse_raw_cases(stream, state: str) -> tuple[dict[dt.date, int], IngestReport]:
    """One state's imported cases per day, as {date: count}, from patient-level rows.

    A row counts when its DetectedState is the state code or its STATE_NAMES
    name and its TypeOfTransmission is Imported, both ignoring case. Every
    row's date is read, whatever state it names: rows with an unparseable date
    or an empty DetectedState go to the rejects report.
    """
    state = state.lower()
    names = (state, STATE_NAMES.get(state, state).lower())
    report = IngestReport()
    imported: dict[dt.date, int] = {}
    for row_number, date, (detected, transmission) in _rows(
            stream, "raw cases", ("DateAnnounced", "DetectedState", "TypeOfTransmission"),
            report):
        detected = detected.strip().lower()
        if not detected:
            report.reject(row_number, "empty DetectedState")
            continue
        if detected in names and transmission.strip().capitalize() == "Imported":
            imported[date] = imported.get(date, 0) + 1
    return imported, report


def parse_states_daily(stream, state: str
                       ) -> tuple[dict[dt.date, dict[str, int]], IngestReport]:
    """One state's column of the (date, status) pivot, as {date: {status: count}}.

    Statuses missing on a present date zero-fill with a warning; unknown
    statuses and malformed rows go to the rejects report; a repeated
    (date, status) pair raises DuplicateDateError. Other states' columns are
    extra columns, and are ignored.
    """
    state = state.lower()
    report = IngestReport()
    table: dict[dt.date, dict[str, int]] = {}
    for row_number, date, (status, count) in _rows(stream, "states daily",
                                                   ("date", "status", state), report):
        status = status.strip().lower()
        if status not in STATUSES:
            report.reject(row_number, f"unknown status {status!r}")
            continue
        if status in table.get(date, ()):
            raise DuplicateDateError(f"duplicate rows for date {date}, status {status!r}")
        try:
            count = int(count.strip() or "0")
        except ValueError as exc:
            report.reject(row_number, f"bad count: {exc}")
            continue
        if count < 0:
            report.reject(row_number, "negative count")
            continue
        table.setdefault(date, {})[status] = count
    for date, statuses in sorted(table.items()):
        for status in STATUSES:
            if status not in statuses:
                report.warn(f"{state}: {date} missing status {status!r}, filled with 0")
                statuses[status] = 0
    return table, report


def parse_event_counts(stream) -> tuple[dict[dt.date, int], IngestReport]:
    """Per-day event-linked counts from a date,count file; empty input is valid."""
    report = IngestReport()
    events: dict[dt.date, int] = {}
    for row_number, date, (count,) in _rows(stream, "event counts", ("date", "count"),
                                            report, empty_ok=True):
        try:
            count = int(count.strip())
        except ValueError as exc:
            report.reject(row_number, str(exc))
            continue
        if count < 0:
            raise NegativeCountError(f"negative event count {count} on {date}")
        events[date] = events.get(date, 0) + count
    return events, report


def build_observed(imported: dict[dt.date, int], daily: dict[dt.date, dict[str, int]],
                   events: dict[dt.date, int], state: str, population_n: int
                   ) -> tuple[ObservedSeries, IngestReport]:
    """Align one state's imported, daily and event tables into an ObservedSeries.

    The date axis is the union range of the three tables, gap-filled with
    zeros (warned). An event count above the day's confirmed count is kept
    and warned. ObservedSeries checks the population and the counts.
    """
    state = state.lower()
    report = IngestReport()
    all_dates = set(daily) | set(imported) | set(events)
    if not all_dates:
        raise SchemaError(f"no data rows for state {state!r}")
    first = min(all_dates)
    dates = [first + dt.timedelta(days=d) for d in range((max(all_dates) - first).days + 1)]
    for date in dates:
        if date not in daily:
            report.warn(f"{state}: no daily row for {date}, filled with 0")
    for date, count in events.items():
        confirmed = daily.get(date, {}).get("confirmed", 0)
        if count > confirmed:
            report.warn(f"{state}: event count {count} on {date} exceeds "
                        f"daily_confirmed {confirmed}")
    series = ObservedSeries(
        state=state,
        dates=tuple(dates),
        daily_confirmed=tuple(daily.get(d, {}).get("confirmed", 0) for d in dates),
        daily_recovered=tuple(daily.get(d, {}).get("recovered", 0) for d in dates),
        daily_deceased=tuple(daily.get(d, {}).get("deceased", 0) for d in dates),
        daily_imported=tuple(imported.get(d, 0) for d in dates),
        daily_event_linked=tuple(events.get(d, 0) for d in dates),
        population_n=population_n,
    )
    return series, report


class _JsonObject(dict):
    """A decoded JSON object that also keeps its key/value pairs, repeated keys included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def load_populations(path) -> dict[str, int]:
    """State code -> population N mapping from a JSON config file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh, object_pairs_hook=_JsonObject)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read population config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"population config must be a JSON object, got {type(data).__name__}")
    out = {}
    for code, value in data.pairs:
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ConfigError(f"population for {code!r} must be a positive integer, got {value!r}")
        if code.lower() in out:
            raise ConfigError(f"population config repeats state {code!r} (case-insensitive)")
        out[code.lower()] = value
    return out
