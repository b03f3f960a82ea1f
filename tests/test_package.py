import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_loads_only_the_standard_library():
    # a fresh interpreter, so modules the test run already loaded do not hide any
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ifvs, ifvs.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'ifvs'}))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
