"""The two rules every measure rests on, each with one owner: the log base
(q by default, else finite and > 1) and the interaction order 1 <= k <= n-1.

Every entry point refuses a bad value before it computes anything with
it: no IPF sweep runs and numpy raises no warning.
"""

import math

import numpy as np
import pytest

from cohesionlab import explore, maxent
from cohesionlab.cli import main, run_maximizer
from cohesionlab.cohesion import cohesion_orders, cohesion_profile, constant_bound
from cohesionlab.dist import entropy, kl_divergence, order_entropies, to_csv, to_dense
from cohesionlab.errors import DistributionError
from cohesionlab.explore import ScanConfig, local_search_max, make_objective
from cohesionlab.maxent import check_eq4_bound, ipf_project_batch, maxent_projection


def _cube(p):
    return np.asarray(to_dense(p)).reshape((1,) + (p.q,) * p.n)


ENTRY_POINTS = {
    "entropy": lambda p, b: entropy(p, b),
    "order_entropies": lambda p, b: order_entropies(p, (1, 2), b),
    "cohesion_orders_sparse": lambda p, b: cohesion_orders(p, (1,), b),
    "cohesion_orders_dense": lambda p, b: cohesion_orders(_cube(p), (1,), b),
    "cohesion_profile": lambda p, b: cohesion_profile(p, b),
    "rebase": lambda p, b: cohesion_profile(p).rebase(b),
    "kl_divergence": lambda p, b: kl_divergence(p, p, b),
    "maxent_projection": lambda p, b: maxent_projection(p, 2, base=b),
    "check_eq4_bound": lambda p, b: check_eq4_bound(p, 1, base=b),
    "make_objective_c": lambda p, b: make_objective(3, 2, "c1", b),
    "make_objective_d": lambda p, b: make_objective(3, 2, "d1", b),
    "local_search_max": lambda p, b: local_search_max(
        ScanConfig(3, 2, mode="search", measures=("d1",)), restarts=1, base=b),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf, 1, 0.5, 0])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_base_refused_before_use(parity3, monkeypatch, entry, base):
    def no_ipf(*args, **kwargs):
        raise AssertionError("IPF ran with a bad log base")

    # explore imports ipf_project_batch by name
    monkeypatch.setattr(maxent, "ipf_project_batch", no_ipf)
    monkeypatch.setattr(explore, "ipf_project_batch", no_ipf)
    message = "log base must be finite" if base == math.inf else "log base must be > 1"
    with pytest.raises(DistributionError, match=f"^{message}$"):
        ENTRY_POINTS[entry](parity3, base)


@pytest.mark.parametrize("base, message", [("nan", "> 1"), ("inf", "finite")])
def test_cli_refuses_non_finite_base(tmp_path, capsys, rs_maximizer4, base, message):
    path = tmp_path / "rs.csv"
    to_csv(rs_maximizer4, path)
    assert main(["cohesion", str(path), "--base", base, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: log base must be {message}\n"


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("call", ["constant_bound", "cohesion_orders", "ipf_project_batch",
                                  "run_maximizer"])
def test_order_outside_range_one_message(redundant_synergy4, call, k):
    calls = {
        "constant_bound": lambda: constant_bound(4, k),
        "cohesion_orders": lambda: cohesion_orders(redundant_synergy4, (k,)),
        "ipf_project_batch": lambda: ipf_project_batch(_cube(redundant_synergy4), k),
        "run_maximizer": lambda: run_maximizer(4, k),
    }
    with pytest.raises(DistributionError, match=f"^interaction order k={k} outside 1..3$"):
        calls[call]()
