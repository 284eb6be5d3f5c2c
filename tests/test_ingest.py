"""Parser behavior: lossless rejects, schema errors, and the merge rules."""

import datetime as dt
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exosir.errors import (ConfigError, DataError, DuplicateDateError, NegativeCountError,
                           ParameterError, SchemaError)
from exosir.ingest import (ObservedSeries, build_observed, load_populations, parse_date,
                           parse_event_counts, parse_raw_cases, parse_states_daily)


def _series(dates, confirmed, recovered=None, deceased=None, imported=None,
            event=None, state="kl", pop=1000):
    n = len(dates)
    return ObservedSeries(
        state=state,
        dates=tuple(dates),
        daily_confirmed=tuple(confirmed),
        daily_recovered=tuple(recovered or [0] * n),
        daily_deceased=tuple(deceased or [0] * n),
        daily_imported=tuple(imported or [0] * n),
        daily_event_linked=tuple(event or [0] * n),
        population_n=pop,
    )


def _days(start, n):
    return [start + dt.timedelta(days=k) for k in range(n)]


def test_parse_date_formats():
    assert parse_date("2020-03-14") == dt.date(2020, 3, 14)
    assert parse_date(" 14/03/2020 ") == dt.date(2020, 3, 14)
    with pytest.raises(ValueError):
        parse_date("31/02/2020")
    with pytest.raises(ValueError):
        parse_date("March 14")


def test_parse_raw_cases_lossless():
    text = (
        "dateannounced,DetectedState,typeoftransmission,Extra\n"
        "2020-01-30,Kerala,Imported,x\n"
        "31/01/2020,Kerala,local,x\n"
        "2020-02-01,Kerala,community spread,x\n"
        "2020-02-02,,Imported,x\n"
        "not a date,Kerala,Imported,x\n"
        "31/01/2020,Kerala, imported ,x\n"
    )
    imported, report = parse_raw_cases(io.StringIO(text), "kl")
    # the Local and the unknown-transmission rows count 0; every other row is
    # counted or rejected
    assert imported == {dt.date(2020, 1, 30): 1, dt.date(2020, 1, 31): 1}
    assert {row for row, _ in report.rejects} == {5, 6}


def test_repeated_bad_date_rejects_every_row():
    # each distinct date is parsed once per file; a failed parse is not remembered
    text = ("DateAnnounced,DetectedState,TypeOfTransmission\n"
            "2020-31-01,Kerala,Imported\n"
            "2020-02-01,Kerala,Local\n"
            "2020-31-01,Kerala,Local\n"
            "2020-02-01,Kerala,Imported\n")
    imported, report = parse_raw_cases(io.StringIO(text), "kl")
    assert report.rejects == [(2, "unparseable date '2020-31-01'"),
                              (4, "unparseable date '2020-31-01'")]
    assert imported == {dt.date(2020, 2, 1): 1}
    daily = ("date,status,kl\n"
             "2020-02-30,Confirmed,1\n"
             "2020-02-30,Recovered,1\n"
             "2020-02-01,Confirmed,2\n")
    table, report = parse_states_daily(io.StringIO(daily), "kl")
    assert [row for row, _ in report.rejects] == [2, 3]
    assert list(table) == [dt.date(2020, 2, 1)]


def test_parse_raw_cases_missing_column():
    with pytest.raises(SchemaError, match="TypeOfTransmission"):
        parse_raw_cases(io.StringIO("DateAnnounced,DetectedState\n2020-01-30,Kerala\n"), "kl")
    with pytest.raises(SchemaError, match="empty"):
        parse_raw_cases(io.StringIO(""), "kl")


def test_parse_states_daily_pivot():
    text = (
        "Date,Status,KL,rj\n"
        "2020-03-01,Confirmed,5,2\n"
        "2020-03-01,Recovered,1,0\n"
        "2020-03-01,Deceased,0,0\n"
        "2020-03-02,Confirmed,7,3\n"
        "2020-03-02,Hospitalized,9,9\n"
        "2020-03-02,Recovered,x,1\n"
    )
    d1, d2 = dt.date(2020, 3, 1), dt.date(2020, 3, 2)
    table, report = parse_states_daily(io.StringIO(text), "kl")
    assert table[d1] == {"confirmed": 5, "recovered": 1, "deceased": 0}
    # one unknown status, one unparseable count
    assert len(report.rejects) == 2
    # d2 zero-fills recovered and deceased
    assert any("missing status" in w for w in report.warnings)
    # kl's column is an extra column here, so its bad cell leaves rj's reading alone
    table, report = parse_states_daily(io.StringIO(text), "rj")
    assert table[d2] == {"confirmed": 3, "recovered": 1, "deceased": 0}
    assert len(report.rejects) == 1
    # d2 zero-fills deceased
    assert any("missing status" in w for w in report.warnings)


def test_parse_states_daily_duplicate_raises():
    text = (
        "date,status,kl\n"
        "2020-03-01,Confirmed,5\n"
        "2020-03-01,Confirmed,6\n"
    )
    with pytest.raises(DuplicateDateError):
        parse_states_daily(io.StringIO(text), "kl")


def test_parse_states_daily_rejected_row_leaves_pair_free():
    # a rejected row is not a reading, so a later valid row for the same
    # (date, status) is its first occurrence, not a duplicate
    text = (
        "date,status,kl\n"
        "2020-03-01,Confirmed,x\n"
        "2020-03-01,Confirmed,5\n"
        "2020-03-01,Recovered,-1\n"
        "2020-03-01,Recovered,2\n"
    )
    table, report = parse_states_daily(io.StringIO(text), "kl")
    assert table[dt.date(2020, 3, 1)] == {"confirmed": 5, "recovered": 2, "deceased": 0}
    assert [row for row, _ in report.rejects] == [2, 4]


def test_parse_states_daily_negative_rejected():
    text = "date,status,kl\n2020-03-01,Confirmed,-4\n"
    table, report = parse_states_daily(io.StringIO(text), "kl")
    assert table == {}
    assert report.rejects == [(2, "negative count")]


def test_parse_event_counts():
    events, report = parse_event_counts(io.StringIO("date,count\n2020-03-05,4\n2020-03-05,2\n"))
    assert events == {dt.date(2020, 3, 5): 6}
    assert not report.rejects

    events, report = parse_event_counts(io.StringIO(""))
    assert events == {} and not report.rejects

    # extra columns are ignored, also when one appears twice
    events, report = parse_event_counts(io.StringIO("date,count,note,Note\n2020-03-01,4,a,b\n"))
    assert events == {dt.date(2020, 3, 1): 4} and not report.rejects

    with pytest.raises(NegativeCountError):
        parse_event_counts(io.StringIO("date,count\n2020-03-05,-1\n"))

    _, report = parse_event_counts(io.StringIO("date,count\n2020-03-05,many\n"))
    assert len(report.rejects) == 1


def _daily(dates, confirmed):
    return {d: {"confirmed": c, "recovered": 0, "deceased": 0} for d, c in zip(dates, confirmed)}


def test_merge_events_inside_range():
    dates = _days(dt.date(2020, 3, 1), 4)
    series, report = build_observed({}, _daily(dates, [5, 6, 7, 8]), {dates[2]: 3}, "kl", 1000)
    assert series.daily_event_linked == (0, 0, 3, 0)
    assert series.dates == tuple(dates)
    assert not report.warnings


def test_merge_events_extends_range():
    # event dates outside the daily rows extend the date axis with zeros
    dates = _days(dt.date(2020, 3, 1), 3)
    after = dt.date(2020, 3, 6)
    series, report = build_observed({dates[0]: 1, dates[2]: 2}, _daily(dates, [5, 6, 7]),
                                    {after: 4}, "kl", 1000)
    assert series.dates[-1] == after
    assert len(series) == 6
    assert series.daily_confirmed == (5, 6, 7, 0, 0, 0)
    assert series.daily_imported == (1, 0, 2, 0, 0, 0)
    assert series.daily_event_linked == (0, 0, 0, 0, 0, 4)
    # 4 events on a day with 0 confirmed is suspicious; it is warned after the gaps
    assert report.warnings[-1] == "kl: event count 4 on 2020-03-06 exceeds daily_confirmed 0"
    assert [w for w in report.warnings if "no daily row" in w] == report.warnings[:-1]


def test_build_observed_rejects_negative_event_count():
    # the series it builds checks its counts
    dates = _days(dt.date(2020, 3, 1), 2)
    with pytest.raises(NegativeCountError,
                       match="^negative daily_event_linked count -2 on 2020-03-02$"):
        build_observed({}, _daily(dates, [5, 6]), {dates[1]: -2}, "kl", 1000)


def test_build_observed_tallies_imported():
    # state code and state name match ignoring case; other states' rows are
    # skipped, but their dates are still read
    rows = [("30/01/2020", "Kerala", "Imported"),
            ("30/01/2020", "kerala", "imported"),
            ("30/01/2020", "KL", "Imported"),
            ("30/01/2020", "Kerala", "Local"),
            ("30/01/2020", "Rajasthan", "Imported"),
            ("01/02/2020", "Kerala", "Imported"),
            ("31/02/2020", "Rajasthan", "Imported"),
            ("30/01/2020", "", "Imported")]
    text = "DateAnnounced,DetectedState,TypeOfTransmission\n" + "".join(
        ",".join(row) + "\n" for row in rows)
    imported, raw_report = parse_raw_cases(io.StringIO(text), "kl")
    assert raw_report.rejects == [(8, "unparseable date '31/02/2020'"),
                                  (9, "empty DetectedState")]
    d = dt.date(2020, 1, 30)
    daily = {d: {"confirmed": 4, "recovered": 0, "deceased": 0},
             d + dt.timedelta(days=2): {"confirmed": 2, "recovered": 1, "deceased": 0}}
    series, report = build_observed(imported, daily, {}, "kl", 1000)
    assert series.daily_imported == (3, 0, 1)
    assert sum(series.daily_imported) == sum(
        1 for _, state, transmission in rows if transmission.capitalize() == "Imported"
        and state.lower() in ("kl", "kerala"))
    assert series.daily_confirmed == (4, 0, 2)
    # the middle day had no daily row
    assert any("no daily row" in w for w in report.warnings)


def test_build_observed_unknown_state():
    with pytest.raises(SchemaError, match="no data rows"):
        build_observed({}, {}, {}, "kl", 1000)
    # the series it builds checks the population
    with pytest.raises(ConfigError, match="^population_n must be positive, got 0$"):
        build_observed({}, _daily(_days(dt.date(2020, 3, 1), 1), [5]), {}, "kl", 0)


def test_observed_series_validation():
    dates = _days(dt.date(2020, 2, 10), 3)
    with pytest.raises(ParameterError, match="entries"):
        _series(dates, [1, 2])
    with pytest.raises(NegativeCountError,
                       match="^negative daily_confirmed count -2 on 2020-02-11$"):
        _series(dates, [1, -2, 3])
    with pytest.raises(ParameterError, match="gap-free"):
        _series([dates[0], dates[2], dates[2] + dt.timedelta(days=1)], [1, 2, 3])
    with pytest.raises(ConfigError):
        _series(dates, [1, 2, 3], pop=0)
    # normalize would otherwise take the minimum of an empty array
    with pytest.raises(ParameterError, match="^an observed series needs at least one date$"):
        _series([], [])


def test_load_populations(tmp_path):
    path = tmp_path / "pop.json"
    path.write_text('{"KL": 35000000, "rj": 68000000}', encoding="utf-8-sig")
    assert load_populations(path) == {"kl": 35_000_000, "rj": 68_000_000}

    path.write_text('{"kl": -5}')
    with pytest.raises(ConfigError):
        load_populations(path)
    path.write_text('{"kl": 1.5}')
    with pytest.raises(ConfigError):
        load_populations(path)
    path.write_text('[1, 2]')
    with pytest.raises(ConfigError):
        load_populations(path)
    path.write_text('{broken')
    with pytest.raises(ConfigError):
        load_populations(path)
    with pytest.raises(ConfigError):
        load_populations(tmp_path / "missing.json")
    path.write_text('{"tn": true}')  # bool is an int subclass, not a population
    with pytest.raises(ConfigError, match="'tn'"):
        load_populations(path)
    path.write_text('{"tn": 72000000, "TN": 5}')  # one state twice after lowercasing
    with pytest.raises(ConfigError, match="'TN'"):
        load_populations(path)
    path.write_text('{"kl": 5, "kl": 6}')  # a plain json.load would keep the last value
    with pytest.raises(ConfigError, match=r"^population config repeats state 'kl' "
                                          r"\(case-insensitive\)$"):
        load_populations(path)


def test_bom_input_parses(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("DateAnnounced,DetectedState,TypeOfTransmission\n"
                    "2020-01-30,Kerala,Imported\n", encoding="utf-8-sig")
    with open(path, encoding="utf-8-sig", newline="") as fh:
        imported, report = parse_raw_cases(fh, "kl")
    assert imported == {dt.date(2020, 1, 30): 1} and not report.rejects


_PARSERS = {
    "raw cases": lambda stream: parse_raw_cases(stream, "kl"),
    "states daily": lambda stream: parse_states_daily(stream, "kl"),
    "event counts": parse_event_counts,
}


@pytest.mark.parametrize("name", sorted(_PARSERS))
def test_bare_carriage_return_is_a_schema_error_naming_the_row(name):
    # a stream opened without newline="" leaves a lone \r inside a row
    header = {"raw cases": "DateAnnounced,DetectedState,TypeOfTransmission",
              "states daily": "date,status,kl", "event counts": "date,count"}[name]
    text = header + "\n2020-02-09,1\r2020-02-11,1\n"
    with pytest.raises(SchemaError, match=f"{name} row 2: new-line character"):
        _PARSERS[name](io.StringIO(text))
    with pytest.raises(SchemaError, match=f"{name} row 1"):
        _PARSERS[name](io.StringIO("date\r,count\n"))


# per parser: a header whose required column appears twice, differing in case, and its name
_TWICE = {
    "raw cases": ("DateAnnounced,DetectedState,TypeOfTransmission,detectedstate\n"
                  "2020-03-01,Kerala,Imported,Rajasthan\n", "DetectedState"),
    "states daily": ("date,status,KL,kl\n2020-03-01,confirmed,5,7\n", "kl"),
    "event counts": ("Date,count,date\n2020-03-01,4,2020-03-02\n", "date"),
}


@pytest.mark.parametrize("name", sorted(_TWICE))
def test_required_column_twice_is_a_schema_error(name):
    # no column can be preferred, so neither is read
    text, column = _TWICE[name]
    with pytest.raises(SchemaError, match=f"^{name}: column '{column}' appears more than once$"):
        _PARSERS[name](io.StringIO(text))


# the last entry is a well-formed header that none of the parsers expects
_HEADERS = ("", "DateAnnounced,DetectedState,TypeOfTransmission\n", "date,status,kl\n",
            "date,count\n",
            "date,daily_confirmed,daily_recovered,daily_deceased,daily_imported,"
            "daily_event_linked\n")
_PIECES = st.one_of(
    st.sampled_from(["2020-02-10", "2020-02-11", "10/02/2020", "2020-02-30", "0", "7", "-3",
                     "1_0", "9" * 40, "kl", "Kerala", "Imported", "confirmed", "recovered",
                     ",", ",", "\n", "\r", "\r\n", '"', "\x00", " "]),
    st.text(max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.builds(lambda head, body: head + "".join(body), st.sampled_from(_HEADERS),
                      st.lists(_PIECES, max_size=40)))
def test_parsers_return_a_result_or_raise_data_error(text):
    for parse in _PARSERS.values():
        try:
            parse(io.StringIO(text))
        except DataError:
            pass
