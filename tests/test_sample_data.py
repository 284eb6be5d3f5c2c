"""scripts/make_sample_data.py regenerates the bundled inputs under data/ byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_FILES = ("states_daily.csv", "raw_cases.csv", "events_tn.csv", "populations.json")


def test_make_sample_data_reproduces_bundled_inputs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_sample_data", ROOT / "scripts" / "make_sample_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT_DIR", str(tmp_path))  # never write into data/
    script.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SAMPLE_FILES)
    for name in SAMPLE_FILES:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name
