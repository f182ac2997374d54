import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]
