"""Set-up probe: from a fresh process, import ``belllab.cli`` and run one
small invocation of each subcommand.  run.py times this process from start
to exit as one sample of ``setup_s``.

Usage: python3 perfbench/setup_probe.py REPORT_DIR
"""

import sys
from pathlib import Path

from workloads import load_cli, warm_up

if __name__ == "__main__":
    warm_up(load_cli(), Path(sys.argv[1]))
