"""The simulator runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies and the test extra
carries no numpy, so nothing the runner or the drive model imports may
pull numpy in (it costs a process tens of milliseconds and megabytes).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import sys
import repro.runner
from repro.disk.hp2247 import make_hp2247
make_hp2247()
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_runner_and_drive_model_do_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
