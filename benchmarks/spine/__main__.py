"""Entry point for ``python3 benchmarks/spine`` and ``python -m benchmarks.spine``."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
# run as a directory/script the repo root is not on sys.path yet; the
# program under test lives in src/ and is never installed
for entry in (str(_ROOT / "src"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.spine.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
