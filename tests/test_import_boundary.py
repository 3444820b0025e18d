"""The CLI's import path leaves out the oracles and the random generators.

`plovkit.selfcheck` holds the literal constructions that check the fast
routes, and `plovkit.randgen` the seeded input generators; the CLI loads
them only inside the subcommands that use them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import plovkit

#: Oracles in `plovkit.selfcheck`, keyed by the product module whose route
#: each one checks; neither that module nor the package exports them.
ORACLES = {
    "exact": ["compound_matrix"],
    "cohomology": ["wedge_coefficient", "_merge_sign"],
    "plov": ["growth_exponent_by_minors", "max_block_compound2_literal"],
    "powersum": ["single_block_leading_coeff", "hilbert_matrix", "hilbert_det"],
}

CLI_MODULES = {
    "plovkit",
    "plovkit.cli",
    "plovkit.cohomology",
    "plovkit.cyclotomic",
    "plovkit.errors",
    "plovkit.exact",
    "plovkit.jordan",
    "plovkit.plov",
    "plovkit.powersum",
}

#: Prints the names each loaded plovkit module defines, by module.
PROBE = """
import json, sys
import plovkit.cli
print(json.dumps({
    name: sorted(vars(module))
    for name, module in sys.modules.items()
    if name.split(".")[0] == "plovkit"
}))
"""


def test_cli_import_loads_neither_selfcheck_nor_randgen():
    src = str(Path(plovkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    names = json.loads(done.stdout)
    assert "plovkit.selfcheck" not in names
    assert "plovkit.randgen" not in names
    assert set(names) == CLI_MODULES
    moved = {name for oracles in ORACLES.values() for name in oracles}
    assert moved.isdisjoint(names["plovkit"])
    for module, oracles in ORACLES.items():
        assert set(oracles).isdisjoint(names[f"plovkit.{module}"])
