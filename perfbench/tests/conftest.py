"""Put the program (``src/``) and the benchmark package on the path."""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
for path in (REPO, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
