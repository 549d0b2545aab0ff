"""README examples run as written and its notes match the code."""

import re
from pathlib import Path

from hdeeg.classifier import EvalReport, SweepResult
from hdeeg.dataio import _CSV_BLOCK_VALUES, _block_rows
from hdeeg.memories import _SCORE_ROWS

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def test_library_use_snippet_runs(capsys):
    section = _section("Library use")
    (snippet,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    namespace = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    report, sweep = namespace["report"], namespace["sweep"]
    assert isinstance(report, EvalReport) and len(report.patients) == 20
    assert isinstance(sweep, SweepResult) and [row.k for row in sweep.rows] == list(range(1, 8))
    assert capsys.readouterr().out.count("\n") == 2


def test_library_use_states_the_scoring_block():
    section = _section("Library use")
    assert f"`_SCORE_ROWS` = {_SCORE_ROWS} rows at a time" in section
    assert f"temporary is {_SCORE_ROWS} × D float64" in section


def test_dataset_format_states_the_csv_block():
    section = " ".join(_section("Dataset format").split())
    assert (
        f"hold `_CSV_BLOCK_VALUES` = {_CSV_BLOCK_VALUES:,} values ({_block_rows(2):,} rows at "
        f"two channels, {_block_rows(19):,} at nineteen)"
    ) in section
    assert f"The reader takes blocks of the same {_CSV_BLOCK_VALUES:,} values." in section
