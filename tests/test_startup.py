"""Start-up in fresh interpreters.

``robustkep.milp`` loads scipy's HiGHS binding from its file, so importing
robustkep imports no ``scipy.optimize``, and the binding stays one module
object whichever of robustkep and ``scipy.optimize`` is imported first.
A scipy without the binding fails the import; ``test_milp.py`` tests that.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports robustkep from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.linalg")


class TestFreshInterpreter:
    def test_import_and_solve_load_no_scipy_optimize(self):
        run_fresh(
            "import sys\n"
            "import robustkep\n"
            "from robustkep import CompatibilityGraph, RobustConfig, milp, solve_robust\n"
            f"def loaded(): return [m for m in {HEAVY!r} if m in sys.modules]\n"
            "assert not loaded(), loaded()\n"
            "assert milp._highs is not None\n"
            "g = CompatibilityGraph(3, 1, ((3, 0), (0, 1), (1, 2), (2, 1)))\n"
            "assert solve_robust(g, RobustConfig(3, 3, 1)).value == 1\n"
            "assert not loaded(), loaded()  # the warm path imports none either\n"
        )

    def test_scipy_optimize_first(self):
        run_fresh(
            "import sys\n"
            "import scipy.optimize\n"
            "core = sys.modules['scipy.optimize._highspy._core']\n"
            "from robustkep import milp\n"
            "assert milp._highs is core is sys.modules[milp._CORE]\n"
        )

    def test_robustkep_first(self):
        run_fresh(
            "import sys\n"
            "from robustkep import milp\n"
            "core = milp._highs\n"
            "from scipy.optimize import linprog\n"
            "import scipy.optimize._highspy._core as by_name\n"
            "from scipy.optimize._highspy import _core as from_package\n"
            "assert core is sys.modules[milp._CORE] is by_name is from_package\n"
            "res = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method='highs')\n"
            "assert res.status == 0 and abs(res.fun - 1) < 1e-9, res\n"
        )
