import json
from math import comb

import pytest

from cohesionlab import codes, dist, explore
from cohesionlab.cli import main, run_maximizer
from cohesionlab.dist import from_csv, to_csv
from conftest import RS4_ATOMS


@pytest.fixture
def parity_csv(tmp_path, parity3):
    path = tmp_path / "parity.csv"
    to_csv(parity3, path)
    return str(path)


@pytest.fixture
def rs_csv(tmp_path, rs_maximizer4):
    path = tmp_path / "rs.csv"
    to_csv(rs_maximizer4, path)
    return str(path)


class TestCohesionCommand:
    def test_text_output(self, parity_csv, capsys):
        assert main(["cohesion", parity_csv]) == 0
        out = capsys.readouterr().out
        assert "n=3 q=2" in out
        assert "C1" in out and "C2" in out

    def test_json_output(self, rs_csv, capsys):
        assert main(["cohesion", rs_csv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == pytest.approx([2.0, 6.0, 2.0], abs=1e-9)
        assert payload["quad_slack"] is not None

    def test_one_profile_pass_with_base(self, rs_csv, capsys, monkeypatch):
        import cohesionlab.cohesion as cohesion

        calls = []
        kernel = cohesion.order_entropies
        monkeypatch.setattr(cohesion, "order_entropies",
                            lambda *args: calls.append(args) or kernel(*args))
        assert main(["cohesion", rs_csv, "--base", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert payload["base"] == 2.0
        assert payload["values"] == pytest.approx([4.0, 12.0, 4.0], abs=1e-9)
        # the quad inequalities stay in base-q units; all three are tight here
        assert payload["quad_slack"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("base", ["1", "0.5"])
    def test_base_at_most_one_rejected(self, rs_csv, capsys, base):
        assert main(["cohesion", rs_csv, "--base", base, "--json"]) == 1
        err = capsys.readouterr().err
        assert err == "error: log base must be > 1\n"

    def test_missing_file(self, capsys):
        assert main(["cohesion", "/nonexistent.csv"]) == 1
        assert capsys.readouterr().err.startswith("error:")


# each loaded with a raw traceback or silently accepted before; None is a directory
MALFORMED_FILES = {
    "q_not_integer.csv": "# q=x\nx0,p\n0,1.0\n",
    "q_one.csv": "# q=1\nx0,p\n0,1.0\n",
    "q_negative.csv": "# q=-3\nx0,x1,p\n0,0,0.5\n1,1,0.5\n",
    "not_json.json": "{\"n\": 1,",
    "text_mass.json": '{"n": 1, "q": 2, "atoms": [{"x": [0], "p": "zz"}]}',
    "text_symbol.json": '{"n": 2, "q": 2, "atoms": [{"x": ["a", 0], "p": 1.0}]}',
    "fractional_symbol.json": '{"n": 1, "q": 2, "atoms": [{"x": [1.7], "p": 1.0}]}',
    "fractional_n.json": '{"n": 1.9, "q": 2, "atoms": [{"x": [1], "p": 1.0}]}',
    "nan_mass.csv": "x0,x1,p\n0,0,nan\n1,1,1.0\n",
    "huge_masses.csv": "x0,p\n0,1e308\n1,1e308\n",
    "binary.csv": b"x0,p\n\xff\xfe,1.0\n",
    "directory.csv": None,
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_file_fails_in_one_line(tmp_path, capsys, name):
    path, content = tmp_path / name, MALFORMED_FILES[name]
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(["cohesion", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert name in captured.err


class TestMaxentCommand:
    def test_parity_divergence(self, parity_csv, capsys):
        assert main(["maxent", parity_csv, "--k", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["divergence_bits"] == pytest.approx(1.0, abs=1e-8)
        assert payload["converged"]

    def test_bad_order(self, parity_csv, capsys):
        assert main(["maxent", parity_csv, "--k", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [["--max-sweeps", "0"], ["--tol", "0"]])
    def test_budget_that_cannot_converge(self, parity_csv, capsys, budget):
        assert main(["maxent", parity_csv, "--k", "1", "--json", *budget]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: IPF needs max_sweeps >= 1 and tol > 0")


class TestFieldCommand:
    def test_gf4_text(self, capsys):
        assert main(["field", "show", "2", "2"]) == 0
        assert "z^2+z+1" in capsys.readouterr().out

    def test_gf4_json(self, capsys):
        assert main(["field", "show", "2", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"p": 2, "m": 2, "modulus": [1, 1, 1], "primitive": 2}

    def test_non_prime_error(self, capsys):
        assert main(["field", "show", "6", "1"]) == 1


class TestCodeCommand:
    def test_rs_text(self, capsys):
        assert main(["code", "rs", "--p", "2", "--m", "2", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "k=2, n=4" in out
        assert "mds=True" in out

    def test_rs_emit_round_trip(self, tmp_path, capsys):
        dest = str(tmp_path / "rs.csv")
        assert main(["code", "rs", "--p", "2", "--m", "2", "--k", "2",
                     "--emit", dest]) == 0
        d = from_csv(dest)
        assert set(d.atoms) == set(RS4_ATOMS)

    def test_k_too_large(self, capsys):
        assert main(["code", "rs", "--p", "2", "--m", "1", "--k", "5"]) == 1

    @pytest.mark.parametrize("emit, enumerations", [(False, 0), (True, 1)])
    def test_codewords_enumerated_only_when_written(self, tmp_path, capsys, monkeypatch,
                                                     emit, enumerations):
        calls = []
        chunks = codes._codeword_chunks

        def counting(c):
            calls.append(c)
            return chunks(c)

        monkeypatch.setattr(codes, "_codeword_chunks", counting)
        argv = ["code", "rs", "--p", "3", "--m", "1", "--k", "2", "--json"]
        if emit:
            argv += ["--emit", str(tmp_path / "rs.csv")]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["params"]["d"] == 2
        assert len(calls) == enumerations


class TestMatroidCommand:
    def test_from_dist_uniform(self, rs_csv, capsys):
        assert main(["matroid", "from-dist", rs_csv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["uniform_k"] == 2
        assert payload["integer_valued"]

    def test_uniform_rep_gf2(self, capsys):
        assert main(["matroid", "uniform-rep", "--k", "2", "--n", "4",
                     "--p", "2", "--m", "1", "--json"]) == 0
        assert not json.loads(capsys.readouterr().out)["representable"]

    def test_uniform_rep_gf3(self, capsys):
        assert main(["matroid", "uniform-rep", "--k", "2", "--n", "4",
                     "--p", "3", "--m", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["representable"]

    def test_uniform_rep_closed_form(self, capsys):
        # n <= q+1: a shortened Reed-Solomon code, no search
        assert main(["matroid", "uniform-rep", "--k", "5", "--n", "6",
                     "--p", "7", "--m", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["representable"]

    def test_uniform_rep_search_budget(self, capsys):
        # n >= q+2 is decided by MDS theorems; outside them the answer is
        # "undecided" with exit 1
        assert main(["matroid", "uniform-rep", "--k", "4", "--n", "10",
                     "--p", "2", "--m", "3"]) == 1
        assert "undecided" in capsys.readouterr().err
        assert main(["matroid", "uniform-rep", "--k", "8", "--n", "12",
                     "--p", "2", "--m", "1"]) == 0
        assert "not representable" in capsys.readouterr().out
        # the dual of a hyperoval in PG(2, 8)
        assert main(["matroid", "uniform-rep", "--k", "7", "--n", "10",
                     "--p", "2", "--m", "3"]) == 0
        assert capsys.readouterr().out.strip().endswith(": representable")


class TestScanCommand:
    def test_random_scan_writes_files(self, tmp_path, capsys):
        out = str(tmp_path / "scan")
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "random",
                     "--samples", "50", "--seed", "1",
                     "--measures", "c1,c2", "--out", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 50
        assert (tmp_path / "scan" / "scatter.csv").exists()
        assert (tmp_path / "scan" / "overlay_eq1.csv").exists()

    def test_random_scan_reports_unconverged_ipf(self, tmp_path, capsys, monkeypatch):
        args = ["scan", "--n", "3", "--q", "2", "--mode", "random", "--samples", "5",
                "--measures", "d2", "--out", str(tmp_path)]
        assert main(args + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ipf_unconverged"] == 0
        monkeypatch.setattr(explore, "DEFAULT_MAX_SWEEPS", 1)
        assert main(args) == 0
        assert "warning: 1 IPF batches did not converge" in capsys.readouterr().out

    def test_random_scan_requires_out(self, capsys):
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "random",
                     "--samples", "5", "--measures", "c1,c2"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_scan_above_the_table_limit_makes_nothing(self, tmp_path, capsys):
        out = tmp_path / "scan"
        assert main(["scan", "--n", "40", "--q", "2", "--mode", "random", "--samples", "1",
                     "--measures", "c1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: dense table: 2^40 = 1099511627776 entries,"
                                " above the table limit 1048576\n")
        assert not out.exists()

    def test_large_grid_guard(self, tmp_path, capsys):
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "grid",
                     "--resolution", "30", "--measures", "c1,c2",
                     "--out", str(tmp_path)]) == 1
        assert "--allow-large" in capsys.readouterr().err

    def test_search_mode(self, tmp_path, capsys):
        out = str(tmp_path / "search")
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "search",
                     "--objective", "c1", "--restarts", "2", "--seed", "3",
                     "--measures", "c1,c2", "--out", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] <= 2.0 + 1e-9
        assert (tmp_path / "search" / "search_result.json").exists()
        assert (tmp_path / "search" / "search_best.csv").exists()


    def test_readme_search_command(self, capsys):
        assert main(["scan", "--n", "4", "--q", "2", "--mode", "search",
                     "--objective", "c2", "--seed", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 5.000000000000004
        assert payload["evaluations"] == 26286
        assert payload["ipf_unconverged"] == 0

    def test_search_ignores_unused_measures(self, capsys):
        # the --measures default names c3, outside 1..n-1 for n = 3
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "search",
                     "--objective", "c2", "--restarts", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == "c2"
        assert payload["value"] <= 2.0 + 1e-9

    def test_search_warns_on_unconverged_ipf(self, capsys):
        # the seed-0 d2 climb at n = 3 scores at least one batch whose
        # IPF stops at the sweep cap
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "search",
                     "--objective", "d2", "--restarts", "1"]) == 0
        assert "IPF batches did not converge" in capsys.readouterr().out

    def test_search_zero_restarts(self, capsys):
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "search",
                     "--objective", "c1", "--restarts", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "restarts" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("q", [-2, 0, 1])
    @pytest.mark.parametrize("mode", ["random", "grid", "search"])
    def test_alphabet_below_two_makes_nothing(self, tmp_path, capsys, mode, q):
        out = tmp_path / "scan"
        assert main(["scan", "--n", "3", "--q", str(q), "--mode", mode, "--samples", "4",
                     "--measures", "c1", "--objective", "d1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alphabet size must be >= 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("measures", [",", "c1,c1"])
    @pytest.mark.parametrize("mode", ["random", "grid"])
    def test_empty_or_repeated_measures_make_nothing(self, tmp_path, capsys, mode, measures):
        out = tmp_path / "scan"
        assert main(["scan", "--n", "2", "--q", "2", "--mode", mode, "--samples", "3",
                     "--resolution", "3", "--measures", measures, "--out", str(out),
                     "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: measures ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_search_bad_objective(self, capsys):
        assert main(["scan", "--n", "3", "--q", "2", "--mode", "search",
                     "--objective", "c3"]) == 1
        assert "outside 1..2" in capsys.readouterr().err


class TestMaximizerCommand:
    def test_n4_k2_certificate(self, capsys, rs_maximizer4):
        dist, cert = run_maximizer(4, 2)
        assert dist.atoms == rs_maximizer4.atoms
        assert cert["meets_bound"] and cert["matroid_uniform"]
        assert cert["cohesion"] == pytest.approx(6.0, abs=1e-9)

    def test_non_prime_power_n(self):
        # n=6 is not a prime power; a shortened RS code over GF(7) is used
        for k in (2, 5):
            dist, cert = run_maximizer(6, k)
            assert cert["q"] == 7
            assert cert["meets_bound"] and cert["matroid_uniform"]

    def test_large_code_mass_check(self):
        # 7^6 codewords of mass 7^-6: the mass check must sum them exactly
        dist, cert = run_maximizer(7, 6)
        assert dist.support_size == 7**6
        assert cert["meets_bound"] and cert["matroid_uniform"]

    def test_enumeration_limit(self, capsys):
        # GF(13) settles U_{6,12}, but 13^6 codewords exceed the limit
        assert main(["maximizer", "12", "6"]) == 1
        err = capsys.readouterr().err
        assert "codeword table: 13^6 = 4826809 entries, above the table limit" in err

    def test_cli_json(self, capsys):
        assert main(["maximizer", "4", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["cohesion_bits"] == pytest.approx(12.0, abs=1e-9)

    def test_emit(self, tmp_path, capsys):
        dest = str(tmp_path / "max.csv")
        assert main(["maximizer", "4", "2", "--emit", dest]) == 0
        assert from_csv(dest).support_size == 16

    def test_bad_order(self, capsys):
        assert main(["maximizer", "4", "4"]) == 1

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 2), (6, 3), (6, 4), (6, 5), (9, 3),
                                      (10, 2), (12, 2)])
    def test_certificate_is_exact_from_ranks(self, monkeypatch, n, k):
        def no_entropies(*args):
            raise AssertionError("the certificate must not need subset entropies")

        monkeypatch.setattr(dist, "_sparse_entropies", no_entropies)
        _, cert = run_maximizer(n, k)
        assert cert["cohesion"] == cert["constant_bound"] == k * comb(n - 1, k)
        assert cert["meets_bound"] and cert["matroid_uniform"]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
