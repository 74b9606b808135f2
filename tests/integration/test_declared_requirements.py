"""The package runs on its declared requirements alone.

A fresh interpreter installs a ``sys.meta_path`` finder that refuses
every top-level module outside the standard library, the package
itself and the distributions pinned in ``requirements-ci.txt``.  Under
it ``import repro`` and an analytical CLI run must still succeed, so a
module installed on a developer's machine but missing from a clean
runner cannot creep into the import graph unnoticed.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
REQUIREMENTS = os.path.join(ROOT, "requirements-ci.txt")


def declared_modules() -> set[str]:
    names = set()
    with open(REQUIREMENTS) as handle:
        for line in handle:
            match = re.match(r"\s*([A-Za-z0-9_.-]+)\s*[=<>~!]", line)
            if match:
                names.add(match.group(1).lower().replace("-", "_"))
    return names


GUARD = """
import sys

ALLOWED = {{*sys.stdlib_module_names, "repro", *{declared!r}}}


class UndeclaredBlocker:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in ALLOWED and top not in sys.modules:
            raise ImportError(f"{{top}} is not a declared requirement")
        return None


sys.meta_path.insert(0, UndeclaredBlocker())
"""


def run_guarded(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in [key for key in env if key.startswith("REPRO_")]:
        del env[name]
    guard = GUARD.format(declared=sorted(declared_modules()))
    return subprocess.run(
        [sys.executable, "-c", guard + code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_import_repro_needs_only_declared_requirements():
    proc = run_guarded("import repro\nimport repro.experiments.__main__\n")
    assert proc.returncode == 0, proc.stderr


def test_analytical_cli_needs_only_declared_requirements():
    proc = run_guarded(
        "import runpy\n"
        "sys.argv = ['repro.experiments', 'fig3', 'table1']\n"
        "runpy.run_module('repro.experiments', run_name='__main__', alter_sys=True)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "fig3" in proc.stdout
    assert "table1" in proc.stdout
