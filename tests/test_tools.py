"""The fixture generator reproduces the committed corpus."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_generate_fixtures_matches_corpus(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "generate_fixtures.py"), str(tmp_path)],
        check=True,
        capture_output=True,
    )
    committed = sorted(p.name for p in (ROOT / "fixtures").glob("*.fix"))
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes()
