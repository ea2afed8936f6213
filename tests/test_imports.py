"""What importing robustgrid loads from scipy, and how it shares HiGHS with scipy.

Each check runs in a fresh interpreter, since the test process itself has
imported scipy.optimize and scipy.sparse long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustgrid

CORE = "scipy.optimize._highspy._core"
SRC = Path(robustgrid.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_highs_but_not_scipy_optimize_sparse_or_linalg():
    out = _run(
        "import sys\n"
        "import robustgrid, robustgrid.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    loaded = out.split()
    assert CORE in loaded
    for heavy in ("scipy.optimize", "scipy.sparse", "scipy.linalg"):
        assert heavy not in loaded


def test_import_loads_no_pool_machinery():
    # the ladder's process pool imports its machinery when it runs
    out = _run(
        "import sys\n"
        "import robustgrid, robustgrid.cli\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))\n"
    )
    assert out.split() == []


def test_solving_loads_no_masked_arrays():
    # np.unique without return_index imports numpy.ma (numpy 2.4), about
    # 1 MB resident; a priced and a searched iteration both run here
    out = _run(
        "import sys\n"
        "from robustgrid.backend import ScipyBackend\n"
        "from robustgrid.ccg import run_ccg\n"
        "from robustgrid.uncertainty import UncertaintyBudget\n"
        "from toys import symmetric_pair\n"
        "for budget in (UncertaintyBudget(2, 0), UncertaintyBudget(1, 0)):\n"
        "    run_ccg(symmetric_pair(), budget, backend=ScipyBackend())\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    assert out.split() == []


def test_scipy_optimize_after_robustgrid_uses_the_same_highs():
    out = _run(
        "import sys\n"
        "import robustgrid.backend\n"
        "from scipy.optimize import Bounds, LinearConstraint, linprog, milp\n"
        "from scipy.optimize._highspy import _core\n"
        f"assert sys.modules[{CORE!r}] is robustgrid.backend.highs is _core\n"
        # max x + 2y s.t. x + y <= 4, 0 <= x, y <= 3: x = 1, y = 3
        "lp = linprog([-1, -2], A_ub=[[1, 1]], b_ub=[4], bounds=[(0, 3), (0, 3)])\n"
        "ip = milp([-1, -2], constraints=LinearConstraint([[1, 1]], ub=4),\n"
        "          integrality=[1, 1], bounds=Bounds(0, 3))\n"
        "print(lp.status, lp.fun, ip.status, ip.fun)\n"
    )
    assert out.split() == ["0", "-7.0", "0", "-7.0"]


def test_robustgrid_after_scipy_optimize_reuses_its_highs():
    out = _run(
        "import sys\n"
        "import scipy.optimize\n"
        f"core = sys.modules[{CORE!r}]\n"
        "import robustgrid.backend\n"
        "assert robustgrid.backend.highs is core\n"
        "from robustgrid import run_ccg\n"
        "from robustgrid.uncertainty import UncertaintyBudget\n"
        "from toys import two_region\n"
        "solution, trace = run_ccg(two_region(), UncertaintyBudget(1, 1))\n"
        "print(trace.converged)\n"
    )
    assert out.split() == ["True"]


def test_loader_names_the_scipy_floor_when_highs_is_missing(monkeypatch, tmp_path):
    import scipy

    from robustgrid import backend

    assert backend._load_highs() is sys.modules[CORE]
    monkeypatch.delitem(sys.modules, CORE)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        backend._load_highs()
