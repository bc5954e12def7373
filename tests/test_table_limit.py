"""One limit, `dist.TABLE_LIMIT`, guards every table built whole: q^n cells
(a scan's rows included), 2^n subset masks, q^k codewords and C(n,k) column
subsets. Each guard runs at exactly the limit and refuses one entry above it,
in its own error class, naming the table and its entry count."""

import json
import re

import pytest

from cohesionlab import dist
from cohesionlab.cli import main
from cohesionlab.codes import enumerate_codewords, k_column_independence, min_distance, rs_generator
from cohesionlab.dist import JointDistribution, entropy_table, to_dense
from cohesionlab.errors import CodeError, DistributionError, MatroidError, ScanError
from cohesionlab.explore import ScanConfig
from cohesionlab.gf import make_field
from cohesionlab.matroid import code_rank_report, vector_matroid
from cohesionlab.maxent import dense_table

# [8, 3] RS code over GF(8): 8^3 codewords, 2^8 rank masks, C(8,3) column subsets
RS8 = rs_generator(make_field(2, 3), 3)
UNIFORM_5_3 = JointDistribution.uniform(3, 5)

CASES = {
    "to_dense": (lambda: to_dense(UNIFORM_5_3), "dense table: 5^3", 125, DistributionError),
    "dense_table": (lambda: dense_table(UNIFORM_5_3), "dense table: 5^3", 125, DistributionError),
    "entropy_table": (lambda: entropy_table(JointDistribution.uniform(5, 2)),
                      "entropy table: 2^5", 32, DistributionError),
    "vector_matroid": (lambda: vector_matroid(make_field(2, 1), [[1] * 6]),
                       "rank table: 2^6", 64, MatroidError),
    "code_rank_report": (lambda: code_rank_report(RS8), "rank table: 2^8", 256, MatroidError),
    "enumerate_codewords": (lambda: enumerate_codewords(RS8), "codeword table: 8^3", 512,
                            CodeError),
    "min_distance": (lambda: min_distance(RS8), "codeword table: 8^3", 512, CodeError),
    "k_column_independence": (lambda: k_column_independence(RS8), "column subsets: C(8,3)", 56,
                              CodeError),
    "ScanConfig": (lambda: ScanConfig(3, 5, measures=("c1",)), "dense table: 5^3", 125,
                   ScanError),
}


@pytest.mark.parametrize("name", CASES)
def test_runs_at_the_limit_and_refuses_one_entry_above(name, monkeypatch):
    call, what, entries, error = CASES[name]
    monkeypatch.setattr(dist, "TABLE_LIMIT", entries)
    call()
    monkeypatch.setattr(dist, "TABLE_LIMIT", entries - 1)
    message = f"{what} = {entries} entries, above the table limit {entries - 1}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("limit", [16, 15])
def test_code_rs_json_keeps_params_above_the_limit(limit, monkeypatch, capsys):
    # RS over GF(4) with k = 2 has 4^2 = 16 codewords; its params come from
    # the Reed-Solomon theorem, so they need no codeword table
    monkeypatch.setattr(dist, "TABLE_LIMIT", limit)
    assert main(["code", "rs", "--p", "2", "--m", "2", "--k", "2", "--json"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert (params["d"], params["is_mds"]) == (3, True)
