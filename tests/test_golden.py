"""Every golden CLI case still writes the bytes recorded in the manifest.

``tests/golden_manifest.json`` holds the sha256 of every file that
``tools/golden_cli.py`` writes, and the library versions it was recorded
under.  Output that moves on purpose is re-recorded with the tool (see its
docstring), so the manifest's diff names the cases that changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from negocc.cli import execute

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "golden_cli", _ROOT / "tools" / "golden_cli.py"
)
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)

MANIFEST = json.loads(Path(__file__).with_name("golden_manifest.json").read_text())


def test_manifest_names_every_recorded_file():
    expected = {
        f"{name}.{ext}" for name in golden_cli.CASES for ext in ("out", "err", "code")
    }
    expected.add("pmf-out-file.file")
    assert set(MANIFEST["sha256"]) == expected


@pytest.mark.parametrize("name", list(golden_cli.CASES))
def test_case_matches_manifest(name, tmp_path, monkeypatch):
    recorded, running = MANIFEST["versions"], golden_cli.versions()
    assert running == recorded, (
        f"the golden manifest was recorded under {recorded}, this run has {running}: "
        "re-record it (tools/golden_cli.py --manifest) and check the changed cases"
    )
    monkeypatch.setenv("COLUMNS", "80")  # as the tool records help text
    golden_cli.record_case(execute, name, tmp_path)
    got = {path.name: golden_cli.sha256(path) for path in tmp_path.iterdir()}
    assert got == {f: MANIFEST["sha256"].get(f) for f in got}
    assert {f"{name}.out", f"{name}.err", f"{name}.code"} <= set(got)
