"""Byte-identity of the CLI: every run of the battery in
``scripts/record_digests.py``, in-process through ``cli.main``, gives the
exit code and the SHA-256 of stdout and stderr recorded in
``tests/golden/digests.json``."""

import importlib.util
import json
from pathlib import Path

RECORDER = Path(__file__).resolve().parents[1] / "scripts" / "record_digests.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("record_digests", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recorder = _recorder()
recorded = json.loads(recorder.DIGESTS.read_text(encoding="utf-8"))


def test_battery_outputs_match_the_recorded_digests():
    assert sorted(recorded) == sorted(map(recorder.key, recorder.BATTERY))
    moved = [key for key, got in ((recorder.key(argv), recorder.run(argv))
                                  for argv in recorder.BATTERY)
             if got != recorded[key]]
    assert moved == []


def test_every_inject_break_run_fails():
    broken = [key for key in recorded if "--inject-break" in key]
    assert broken and all(recorded[key]["exit"] == 1 for key in broken)
