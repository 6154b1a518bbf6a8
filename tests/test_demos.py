"""The demos run as scripts and print exactly the pinned bytes."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parents[1] / "demos"

# sha256 of each demo's stdout. equilibrium_regimes prints root-finding step counts and
# oracle_validation prints grid labeling counts: a change to the solver's step rule may re-pin
# only the first, and a change to the oracle's labeling rule only the second, as the
# equilibrium_* entries of test_cli.GOLDEN_SHA256 allow for the step count. Any other change
# must keep every byte.
DEMO_SHA256 = {
    "capacity_statics": "a53493bdda15f6a3cced964bf16e5ebaef408d009c91aac7753994c5a2dc70ac",
    "equilibrium_regimes": "c49703b676d1e605f0534227ac0e3861824951c2b3f5013adc70eea900f720c2",
    "i880_design_sweep": "5abb1cecd80d7203866b64ddd0c25e0d4f5d4c2132271dee74f5476967e049c9",
    "oracle_validation": "5298737fbeb80d8200ac1a53fb63819c8c6cfd1fa06430b2ee17e0bbd6546e53",
}


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_stdout(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEMO_SHA256.get(path.stem)
