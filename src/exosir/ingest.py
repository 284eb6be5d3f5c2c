"""Parsers for the three observed-data sources and the per-state daily series.

Three inputs feed the fit pipeline: patient-level raw case rows (date, state,
transmission type), a per-state daily pivot (date, status, one column per
state code), and per-day event-linked counts. Parsing never drops rows
silently: every input row lands either in the result or in the rejects
report.
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
class RawCaseRecord:
    date_announced: dt.date
    detected_state: str
    type_of_transmission: str  # Local, Imported, or Unknown


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
        n = len(self.dates)
        for name in ("daily_confirmed", "daily_recovered", "daily_deceased",
                     "daily_imported", "daily_event_linked"):
            series = getattr(self, name)
            if len(series) != n:
                raise ParameterError(f"{name} has {len(series)} entries for {n} dates")
            if any(c < 0 for c in series):
                raise NegativeCountError(f"{name} contains a negative count")
        for a, b in zip(self.dates, self.dates[1:]):
            if (b - a).days != 1:
                raise ParameterError(f"dates must be gap-free and ascending: {a} -> {b}")
        if self.population_n <= 0:
            raise ConfigError(f"population_n must be positive, got {self.population_n!r}")

    def __len__(self) -> int:
        return len(self.dates)


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


def parse_raw_cases(stream) -> tuple[list[RawCaseRecord], IngestReport]:
    """Patient-level rows with DateAnnounced, DetectedState, TypeOfTransmission.

    Transmission values other than Local/Imported map to Unknown. Rows with
    unparseable dates go to the rejects report.
    """
    reader = csv.DictReader(stream)
    cols = _header_map(_fieldnames(reader, "raw cases"),
                       ("DateAnnounced", "DetectedState", "TypeOfTransmission"), "raw cases")
    report = IngestReport()
    records = []
    # raw-case dates repeat, one row per patient, so each distinct text is read once;
    # an unparseable one is not cached, and every row that carries it is rejected
    parse = functools.lru_cache(maxsize=None)(parse_date)
    for row_number, row in _numbered_rows(reader, "raw cases"):
        raw_date = (row.get(cols["DateAnnounced"]) or "").strip()
        state = (row.get(cols["DetectedState"]) or "").strip()
        transmission = (row.get(cols["TypeOfTransmission"]) or "").strip().capitalize()
        if transmission not in ("Local", "Imported"):
            transmission = "Unknown"
        try:
            date = parse(raw_date)
        except ValueError as exc:
            report.reject(row_number, str(exc))
            continue
        if not state:
            report.reject(row_number, "empty DetectedState")
            continue
        records.append(RawCaseRecord(date, state, transmission))
    return records, report


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


def build_observed(raw_records: list[RawCaseRecord], daily: dict[dt.date, dict[str, int]],
                   events: dict[dt.date, int], state: str, population_n: int
                   ) -> tuple[ObservedSeries, IngestReport]:
    """Assemble the aligned ObservedSeries for one state code from its daily table.

    daily_imported counts the raw-case records of that state with type
    Imported per day; the date axis is the union range of all three sources,
    gap-filled with zeros (warned). An event count above the day's confirmed
    count is kept and warned; a negative one raises NegativeCountError.
    """
    state = state.lower()
    if population_n <= 0:
        raise ConfigError(f"population_n must be positive, got {population_n!r}")
    report = IngestReport()
    state_name = STATE_NAMES.get(state, state).lower()
    imported: dict[dt.date, int] = {}
    for record in raw_records:
        rec_state = record.detected_state.lower()
        if rec_state not in (state, state_name):
            continue
        if record.type_of_transmission != "Imported":
            continue
        imported[record.date_announced] = imported.get(record.date_announced, 0) + 1
    all_dates = set(daily) | set(imported) | set(events)
    if not all_dates:
        raise SchemaError(f"no data rows for state {state!r}")
    dates = _date_span(min(all_dates), max(all_dates))
    for date in dates:
        if date not in daily:
            report.warn(f"{state}: no daily row for {date}, filled with 0")
    for date, count in events.items():
        if count < 0:
            raise NegativeCountError(f"negative event count {count} on {date}")
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
