"""Every row of the default figure sweeps against ``data/figure_rows.json``.

The file holds each pinned sweep's rows at its defaults (seed 0), computed
with BLAS on one thread and stored at full float precision. A column listed
in ``RATCHETS`` is an optimizer output: it may get better, never worse by
more than ``PIN_TOL``. Every other column must stay within ``PIN_TOL``.
A change that moves a row rewrites the file and prints what moved:

    PYTHONPATH=src python tests/test_figure_rows.py [SWEEP ...]
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # before numpy loads: the pins were taken with one BLAS thread
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from channel_forge.figures import FIGURES

DATA = Path(__file__).with_name("data") / "figure_rows.json"

PIN_TOL = 1e-12

# sweep -> {optimizer column: the direction in which it may move}
RATCHETS = {
    "fig6a": {"fidelity_opt": "higher"},
    "fig6b": {"fidelity_theta_only": "higher", "fidelity_full_circuit": "higher"},
    "fig6c": {"fidelity_pauli_probs": "higher", "fidelity_full_circuit": "higher"},
    "fig7c": {"best_fidelity_stochastic": "higher", "best_fidelity_ancilla": "higher"},
}


def _pinned() -> dict:
    return json.loads(DATA.read_text())["sweeps"]


def _rows(name: str) -> list[dict]:
    return [{key: float(value) for key, value in row.items()} for row in FIGURES[name]()]


@pytest.mark.parametrize("name", sorted(RATCHETS))
def test_sweep_rows_match_the_pinned_values(name):
    pinned = _pinned()[name]
    rows = _rows(name)
    assert [sorted(row) for row in rows] == [sorted(row) for row in pinned]
    for i, (row, pin) in enumerate(zip(rows, pinned)):
        for key, value in row.items():
            where = f"{name}[{i}] {key}: {value!r} against pinned {pin[key]!r}"
            direction = RATCHETS[name].get(key)
            if direction == "higher":
                assert value >= pin[key] - PIN_TOL, where
            elif direction == "lower":
                assert value <= pin[key] + PIN_TOL, where
            else:
                assert abs(value - pin[key]) <= PIN_TOL, where


def main(names: list[str]) -> None:
    """Recompute the named sweeps (default: every pinned one), print each value
    that moved, and rewrite the file."""
    data = json.loads(DATA.read_text()) if DATA.exists() else {"sweeps": {}}
    data["blas_threads"] = 1
    data["versions"] = {"numpy": np.__version__, "scipy": __import__("scipy").__version__}
    for name in names or sorted(RATCHETS):
        rows = _rows(name)
        for i, (row, pin) in enumerate(zip(rows, data["sweeps"].get(name, []))):
            for key, value in row.items():
                if value != pin.get(key):
                    print(f"{name}[{i}] {key}: {pin.get(key)!r} -> {value!r}")
        data["sweeps"][name] = rows
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
