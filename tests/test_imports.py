"""Cold start: import, parse, analyze and simulate load numpy and no scipy module or jsonschema."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_guard():
    # a fresh interpreter: this process has loaded every scipy module already
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    guard, config = ROOT / "tests" / "import_guard.py", ROOT / "configs" / "tree3.json"
    proc = subprocess.run(
        [sys.executable, str(guard), str(config)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
