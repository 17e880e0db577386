"""Acceptance battery: one test per criterion in ``frameproof.acceptance.CRITERIA``.

``frameproof selftest`` runs the same list.  Each test prints the same
one-line report as selftest (run pytest with -s to see them all).
"""

import os
import subprocess
import sys
from pathlib import Path

import frameproof
from frameproof import acceptance


def _as_test(number, criterion):
    def test():
        ok, detail = criterion()
        line = acceptance.report_line(number, ok, detail)
        print(line)
        assert ok, line

    return test


# Named after the criteria (test_criterion_1_base_fixtures, ...), so each
# keeps a stable test id.
for _number, _criterion in enumerate(acceptance.CRITERIA, 1):
    globals()[f"test_{_criterion.__name__}"] = _as_test(_number, _criterion)


def test_importing_the_package_loads_neither_the_battery_nor_the_cli():
    # a fresh interpreter, since this one has imported both
    paths = [str(Path(frameproof.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = "import sys, frameproof; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "frameproof.plan" in loaded
    assert "frameproof.cli" not in loaded and "frameproof.acceptance" not in loaded
