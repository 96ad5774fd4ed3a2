import os
import subprocess
import sys
from pathlib import Path

import meanfield_lq

MAX_COLUMNS = 100
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_lines_fit_the_column_limit():
    # every line of the package source fits in MAX_COLUMNS columns
    long = []
    for path in sorted(Path(meanfield_lq.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if len(line) > MAX_COLUMNS:
                long.append(f"{path.name}:{number} has {len(line)} columns")
    assert not long, long


def test_package_root_holds_only_the_version():
    # one import path per name: each module is imported by its own name
    code = ("import sys, meanfield_lq as m; print([n for n in dir(m) if not n.startswith('_')],"
            " m.__version__, sorted(n for n in sys.modules if n.startswith('meanfield_lq.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", meanfield_lq.__version__, "[]"]


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
