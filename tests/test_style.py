from pathlib import Path

import meanfield_lq

MAX_COLUMNS = 100


def test_package_lines_fit_the_column_limit():
    # every line of the package source fits in MAX_COLUMNS columns
    long = []
    for path in sorted(Path(meanfield_lq.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if len(line) > MAX_COLUMNS:
                long.append(f"{path.name}:{number} has {len(line)} columns")
    assert not long, long
