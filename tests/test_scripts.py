"""scripts/reproduce_all.py, loaded and called in-process."""
import runpy
from pathlib import Path

from mparray.designs import EXPECTED_ELEMENTS

REPRODUCE_ALL = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"


def test_reproduce_all_meets_every_published_result(capsys):
    assert runpy.run_path(str(REPRODUCE_ALL))["main"]() == 0
    out = capsys.readouterr().out
    for key, count in EXPECTED_ELEMENTS.items():
        assert f"{key}: {count} elements," in out
        assert f"published {count} elements," in out


def test_reproduce_all_counts_a_count_above_the_published_one(monkeypatch, capsys):
    monkeypatch.setitem(EXPECTED_ELEMENTS, "design2", 13)
    assert runpy.run_path(str(REPRODUCE_ALL))["main"]() == 1
    assert "design2: exit 2, expected 0" in capsys.readouterr().out
