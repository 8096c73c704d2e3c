"""Run the pharmonious CLI in this process and fail if it loads scipy,
numpy.random or numpy.ma.

    python .github/lean_imports.py <subcommand> [options]

runs pharmonious.cli.main on the arguments, prints the modules of those
packages it loaded, and exits nonzero when the call fails or when any of
them was loaded.
"""

import sys

from pharmonious.cli import main

LEAN = ("scipy", "numpy.random", "numpy.ma")

code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules
                if any(m == p or m.startswith(p + ".") for p in LEAN))
print("scipy, numpy.random or numpy.ma modules loaded", loaded)
sys.exit(code or bool(loaded))
