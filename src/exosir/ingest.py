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

DEFAULT_DATE_FALLBACKS = ("%d/%m/%Y",)
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
    """ISO-8601 first, then the DEFAULT_DATE_FALLBACKS formats."""
    text = text.strip()
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        pass
    for fmt in DEFAULT_DATE_FALLBACKS:
        try:
            return dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparseable date {text!r}")


def _fieldnames(reader: csv.DictReader, where: str):
    """The header row; one the csv module cannot read is a schema error."""
    try:
        return reader.fieldnames
    except csv.Error as exc:
        raise SchemaError(f"{where} row 1: {exc}") from None


def _numbered_rows(reader: csv.DictReader, where: str):
    """(row number, row) per data row, the header being row 1.

    A row the csv module cannot read (a bare carriage return in an unquoted
    field, an oversized field) is a schema error naming the row.
    """
    row_number = 1
    try:
        for row_number, row in enumerate(reader, start=2):
            yield row_number, row
    except csv.Error as exc:
        raise SchemaError(f"{where} row {row_number + 1}: {exc}") from None


def _header_map(fieldnames, required, where: str) -> dict[str, str]:
    """Case-insensitive lookup of required column names; extras are ignored.

    A required name that more than one header column matches is a schema
    error, since no column can be preferred.
    """
    if not fieldnames:
        raise SchemaError(f"{where}: empty input, no header row")
    mapping = {}
    for want in required:
        names = [name for name in fieldnames
                 if name is not None and name.strip().lower() == want.lower()]
        if not names:
            raise SchemaError(f"{where}: missing required column {want!r}")
        if len(names) > 1:
            raise SchemaError(f"{where}: column {want!r} appears more than once")
        mapping[want] = names[0]
    return mapping


def parse_raw_cases(stream, state: str) -> tuple[dict[dt.date, int], IngestReport]:
    """One state's imported cases per day, as {date: count}, from patient-level rows.

    A row counts when its DetectedState is the state code or its STATE_NAMES
    name and its TypeOfTransmission is Imported, both ignoring case. Every
    row's date is read, whatever state it names: rows with an unparseable date
    or an empty DetectedState go to the rejects report.
    """
    state = state.lower()
    names = (state, STATE_NAMES.get(state, state).lower())
    reader = csv.DictReader(stream)
    cols = _header_map(_fieldnames(reader, "raw cases"),
                       ("DateAnnounced", "DetectedState", "TypeOfTransmission"), "raw cases")
    report = IngestReport()
    imported: dict[dt.date, int] = {}
    # raw-case dates repeat, one row per patient, so each distinct text is read once;
    # an unparseable one is not cached, and every row that carries it is rejected
    parse = functools.lru_cache(maxsize=None)(parse_date)
    for row_number, row in _numbered_rows(reader, "raw cases"):
        try:
            date = parse((row.get(cols["DateAnnounced"]) or "").strip())
        except ValueError as exc:
            report.reject(row_number, str(exc))
            continue
        detected = (row.get(cols["DetectedState"]) or "").strip().lower()
        if not detected:
            report.reject(row_number, "empty DetectedState")
            continue
        transmission = (row.get(cols["TypeOfTransmission"]) or "").strip().capitalize()
        if detected in names and transmission == "Imported":
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
    reader = csv.DictReader(stream)
    cols = _header_map(_fieldnames(reader, "states daily"), ("date", "status", state),
                       "states daily")
    report = IngestReport()
    table: dict[dt.date, dict[str, int]] = {}
    for row_number, row in _numbered_rows(reader, "states daily"):
        status = (row.get(cols["status"]) or "").strip().lower()
        try:
            date = parse_date(row.get(cols["date"]) or "")
        except ValueError as exc:
            report.reject(row_number, str(exc))
            continue
        if status not in STATUSES:
            report.reject(row_number, f"unknown status {status!r}")
            continue
        if status in table.get(date, ()):
            raise DuplicateDateError(f"duplicate rows for date {date}, status {status!r}")
        try:
            count = int((row.get(cols[state]) or "0").strip() or "0")
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
    reader = csv.DictReader(stream)
    report = IngestReport()
    fieldnames = _fieldnames(reader, "event counts")
    if not fieldnames:
        return {}, report
    cols = _header_map(fieldnames, ("date", "count"), "event counts")
    events: dict[dt.date, int] = {}
    for row_number, row in _numbered_rows(reader, "event counts"):
        try:
            date = parse_date(row.get(cols["date"]) or "")
            count = int((row.get(cols["count"]) or "").strip())
        except ValueError as exc:
            report.reject(row_number, str(exc))
            continue
        if count < 0:
            raise NegativeCountError(f"negative event count {count} on {date}")
        events[date] = events.get(date, 0) + count
    return events, report


def _date_span(first: dt.date, last: dt.date) -> list[dt.date]:
    return [first + dt.timedelta(days=d) for d in range((last - first).days + 1)]


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
    dates = _date_span(min(all_dates), max(all_dates))
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
