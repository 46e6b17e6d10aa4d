import os
import subprocess
import sys

import numpy as np
import pytest

from threshold_dirac.probes import crossing_count
from threshold_dirac.solver import combine_potentials


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def run_python():
    """run(*args, threads=None, timeout=120, check=False): a fresh
    interpreter on `args` with the package's src on PYTHONPATH and, when
    threads is given, OPENBLAS_NUM_THREADS set to it; returns the
    CompletedProcess with text stdout and stderr."""

    def run(*args, threads=None, timeout=120, check=False):
        env = dict(os.environ)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True,
            check=check, timeout=timeout,
        )

    return run


@pytest.fixture
def certify_track():
    """check(plan, records): certify a bound-state track by the inertia
    count of crossings, per mu of the plan.  Across each record's kappa,
    from kappa (1 - 1e-3) to kappa (1 + 1e-3), the count rises by
    crit.dim; over plan.kappa_range it rises by crit.dim times the number
    of records, so no crossing was missed and a mu without a record has
    no crossing there."""

    def check(plan, records):
        A, dim = plan.crit.critical_potential(), plan.crit.dim
        lo, hi = plan.kappa_range
        for mu in plan.mus:
            V = combine_potentials(A, plan.B0.rescaled(mu))
            kappas = [r.kappa for r in records if r.mu == mu]
            for kap in kappas:
                rise = crossing_count(V, kap * (1 + 1e-3)) - crossing_count(V, kap * (1 - 1e-3))
                assert rise == dim, (mu, kap, rise)
            rise = crossing_count(V, hi) - crossing_count(V, lo)
            assert rise == dim * len(kappas), (mu, kappas, rise)

    return check
