"""Every demo runs to the end and writes its artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["fourbar_trace", "leg_synthesis_scan",
                                  "nsga2_leg_front", "slam_desk_run",
                                  "isotropy_families", "mobility_audit"])
def test_demo_exits_0(tmp_path, name):
    # demos write demo-output/ under the working directory
    path = os.pathsep.join(filter(None, [str(DEMOS.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    # the mobility audit only prints its table
    if name != "mobility_audit":
        assert list((tmp_path / "demo-output").rglob("*.svg"))
