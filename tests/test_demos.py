"""The narrative scripts under `demos/` run to the end."""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    """An empty glob would leave the parametrized test nothing to run."""
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    """Each demo runs as `python3 demos/<name>.py` would, as `__main__`,
    and prints its walk-through."""
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
