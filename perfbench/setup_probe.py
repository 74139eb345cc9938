"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is ``import nbestkernel`` plus ``cli.parse_config`` of every task,
which builds the spaces' weights, runs the truncation guard and generates the
signals and ensembles.

    python3 perfbench/setup_probe.py SRC_DIR CONFIGS_JSON
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, configs = sys.argv[1], sys.argv[2]
    texts = json.loads(Path(configs).read_text())
    sys.path.insert(0, src)
    start = time.perf_counter()
    from nbestkernel import cli

    for text in texts:
        cli.parse_config(text)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
