import sys
from pathlib import Path

# The benchmark's tests run against the checkout's amp, like the benchmark.
SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
