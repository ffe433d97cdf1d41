"""The identity harness in tools/: a checkout checked against the reference
it wrote passes, and a reference with one value changed fails."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def harness(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "identity.py"), "--root", str(ROOT), *args],
        capture_output=True, text=True, timeout=600,
    )


def test_write_then_check(tmp_path):
    ref = tmp_path / "ref.json"
    out = harness("--write", str(ref))
    assert out.returncode == 0, out.stderr
    cells = json.loads(ref.read_text())
    assert len(cells) == 72
    out = harness("--check", str(ref))
    assert out.returncode == 0, out.stdout + out.stderr

    cell = sorted(cells)[0]
    assert cells[cell]["nodes.master"] > 0 and "time_total" not in cells[cell]
    cells[cell]["value"] += 1
    ref.write_text(json.dumps(cells))
    out = harness("--check", str(ref))
    assert out.returncode == 1
    assert out.stdout.splitlines()[0].startswith(f"{cell} value: ")
    assert out.stdout.splitlines()[1] == "1 difference(s) on 72 cells"
