"""Importing the CLI loads neither dataclasses nor inspect: every CLI call
pays for its imports, and those two cost more than a small decide.

Runs under pytest, or as a plain script on an interpreter without it:
``python tests/test_startup.py``.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def modules_after_import(module):
    """The names in sys.modules after a fresh interpreter imports module.
    -S skips site, so .pth files of the environment load nothing."""
    code = "import sys, %s; print(' '.join(sorted(sys.modules)))" % module
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    loaded = modules_after_import("posetlie.cli")
    assert "posetlie.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


if __name__ == "__main__":
    test_cli_import_loads_no_dataclasses_or_inspect()
    print("ok: %s imports posetlie.cli without dataclasses or inspect" % sys.version.split()[0])
