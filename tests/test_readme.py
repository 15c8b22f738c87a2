"""The README's public example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # the one example of the public API: a generator signature it calls
    # with that is gone, or a result shape it relies on that has changed,
    # fails here instead of in a reader's hands
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    exec(compile(block, f"{README.name} ## Library", "exec"), {"__name__": "readme_library"})
    (line,) = capsys.readouterr().out.splitlines()
    assert float(line) >= 0.0  # arithmetic dominates geometric on every trial
