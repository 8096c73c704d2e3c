"""Set-up cost of one CLI call, in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py (--grid N | --space FILE) RHO_FACTOR

Times the import of ``pharmonious`` plus the construction of the workload's
``Space`` and ``RadiusField``, the work every CLI call repeats before its
subcommand starts.  Prints one JSON object with that time and a record of
the numeric kernel and library versions this interpreter sees.
"""

import json
import sys
import time


def main(argv):
    if len(argv) != 3 or argv[0] not in ("--grid", "--space"):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import pharmonious
    t_import = time.perf_counter()
    if argv[0] == "--grid":
        space = pharmonious.square_grid(int(argv[1]))
    else:
        space = pharmonious.load_space(argv[1])
    t_space = time.perf_counter()
    pharmonious.RadiusField.scaled_boundary_distance(space, float(argv[2]))
    t_end = time.perf_counter()

    import numpy
    import scipy
    from pharmonious import operators
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    print(json.dumps({
        "setup_s": t_end - t0,
        "import_s": t_import - t0,
        "space_s": t_space - t_import,
        "rho_s": t_end - t_space,
        "n_points": len(space),
        "pharmonious_file": pharmonious.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": numba_ok,
        "USE_COMPILED_SWEEP": getattr(operators, "USE_COMPILED_SWEEP", "absent"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
