"""Import hygiene: the runtime path needs numpy only.

scipy and networkx are test oracles and the optional PCHIP backend.
Each check runs in a fresh interpreter, because this test process has
usually imported both already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: A meta-path finder that makes scipy and networkx uninstallable.
BLOCK = """
import sys

class _Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _Block())
"""

#: Renders the experiments that exercise the fabric (figure1) and the
#: violin KDE (figure4, figure5), with every density value included.
RUN_FIGURES = """
from repro.api import ExperimentContext, run_experiment
from repro.trace import kernel_duration_profile, memcpy_size_profile

ctx = ExperimentContext(cache=False)
for experiment_id in ("figure1", "figure4", "figure5"):
    print(run_experiment(experiment_id, ctx).render())
for profile in ctx.profiles():
    for dist in (kernel_duration_profile(profile.trace, top_n=5),
                 memcpy_size_profile(profile.trace)):
        for v in dist.violins:
            print(v.label, v.density_x, v.density_y)
"""


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["repro", "repro.api"])
def test_import_leaves_heavy_dependencies_unloaded(module):
    out = run_python(
        f"import sys, {module}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} "
        "& {'scipy', 'networkx'}))"
    )
    assert out.strip() == "[]"


def test_figures_run_without_scipy_or_networkx():
    blocked = run_python(BLOCK + RUN_FIGURES)
    assert "=== figure1 ===" in blocked
    assert blocked == run_python(RUN_FIGURES)
