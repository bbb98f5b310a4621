"""Set-up time of one workload, measured in a fresh interpreter.

Usage: ``python3 probe_setup.py '<json spec>'`` with the keys ``src`` (the
``src`` directory holding ``triphoton``), ``configs`` (config file paths)
and ``table2d`` (an ``.npz`` joint table, or null). Times importing the
package, parsing every config (which loads and normalizes tabulated
files) and building the normalized joint table, then prints the seconds.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    started = time.perf_counter()
    import numpy as np
    from triphoton import cli, spectra
    for path in map(Path, spec["configs"]):
        cli.parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
    if spec["table2d"]:
        with np.load(spec["table2d"]) as t:
            spectra.Tabulated2D(t["grid1"], t["grid2"], t["values"]).normalize()
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
