"""One fresh-process set-up of `nodal`: import it, build its rings, parse the fixtures.

`run.py` runs this script as a child process to measure `setup_s`.  The script
times only its own set-up work, from just before `import nodal` to the last
parsed fixture, and prints that wall time in seconds; interpreter start-up and
process creation are left out.  It exits with status 3 if `nodal` does not
come from the checkout's `src/`.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = time.perf_counter()
import nodal  # noqa: E402
import nodal.cli  # noqa: E402

if Path(nodal.__file__).resolve().parent != ROOT / "src" / "nodal":
    sys.exit(3)
for prime in (nodal.DEFAULT_PRIME, nodal.SECOND_PRIME):
    nodal.default_ring(prime)
    for path in sorted((ROOT / "fixtures").glob("*.fix")):
        nodal.parse_fixture(path.read_text(), prime)
print(repr(time.perf_counter() - t0))
