"""Run the pharmonious CLI in this process and fail if it loads scipy.

    python .github/no_scipy.py <subcommand> [options]

runs pharmonious.cli.main on the arguments, prints the scipy modules it
loaded, and exits nonzero when the call fails or when any scipy module was
loaded.
"""

import sys

from pharmonious.cli import main

code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print("scipy modules loaded", loaded)
sys.exit(code or bool(loaded))
