import json

import pytest
from click.testing import CliRunner

from tazcar.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_star_edges(tmp_path):
    p = tmp_path / "star.edges"
    p.write_text("".join(f"0 {i}\n" for i in range(1, 6)))
    return p


def simulate_small(runner, tmp_path, seed=1, lattice=4):
    data = tmp_path / "zones.csv"
    truth = tmp_path / "truth.json"
    topology = tmp_path / "zones.topology"
    result = runner.invoke(main, ["simulate", "--lattice", str(lattice), "--seed", str(seed),
                                  "--out", str(data), "--truth-out", str(truth),
                                  "--topology-out", str(topology)])
    assert result.exit_code == 0, result.output
    return data, truth, topology


class TestCentralityCommand:
    def test_star_table(self, runner, tmp_path):
        result = runner.invoke(main, ["centrality", "--graph",
                                      str(write_star_edges(tmp_path))])
        assert result.exit_code == 0
        assert "pattern: Lollipops" in result.output
        assert "centralization: 1.000000" in result.output

    def test_star_json(self, runner, tmp_path):
        result = runner.invoke(main, ["centrality", "--graph",
                                      str(write_star_edges(tmp_path)),
                                      "--format", "json"])
        payload = json.loads(result.output)
        assert payload["centralization"] == pytest.approx(1.0)
        assert payload["pattern"] == "Lollipops"
        assert payload["node_scores"][0] == pytest.approx(1.0)

    def test_lattice_is_grid(self, runner, tmp_path):
        p = tmp_path / "grid.edges"
        lines = []
        k = 5
        for r in range(k):
            for c in range(k):
                i = r * k + c
                if c + 1 < k:
                    lines.append(f"{i} {i + 1}")
                if r + 1 < k:
                    lines.append(f"{i} {i + k}")
        p.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["centrality", "--graph", str(p), "--format", "json"])
        payload = json.loads(result.output)
        assert payload["pattern"] == "Grid"
        assert payload["centralization"] < 0.15

    def test_malformed_line_exit_2(self, runner, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 1\nbroken line here\n")
        result = runner.invoke(main, ["centrality", "--graph", str(p)])
        assert result.exit_code == 2
        assert ":2:" in result.output

    def test_self_loop_exit_2_with_lineno(self, runner, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 1\n1 1\n1 2\n")
        result = runner.invoke(main, ["centrality", "--graph", str(p)])
        assert result.exit_code == 2
        assert "bad.edges:2: self-loop on node 1" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("length", ["inf", "nan"])
    def test_non_finite_length_exit_2(self, runner, tmp_path, length):
        p = tmp_path / "bad.edges"
        p.write_text(f"0 1 1.0\n1 2 {length}\n2 3 1.0\n")
        result = runner.invoke(main, ["centrality", "--graph", str(p),
                                      "--metric", "edge_length"])
        assert result.exit_code == 2
        assert "bad.edges:2: length must be a finite positive number" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_too_small_graph_exit_3(self, runner, tmp_path):
        p = tmp_path / "tiny.edges"
        p.write_text("0 1\n")
        result = runner.invoke(main, ["centrality", "--graph", str(p)])
        assert result.exit_code == 3

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["centrality", "--graph",
                                      str(tmp_path / "nope.edges")])
        assert result.exit_code == 2

    def test_unknown_flag_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["centrality", "--graph",
                                      str(write_star_edges(tmp_path)), "--bogus"])
        assert result.exit_code == 2

    def test_help_lists_flags(self, runner):
        result = runner.invoke(main, ["centrality", "--help"])
        for flag in ("--graph", "--metric", "--eq2-variant", "--format"):
            assert flag in result.output


class TestWeightsCommand:
    def test_build_and_write(self, runner, tmp_path):
        topology = tmp_path / "zones.topology"
        topology.write_text("zones 3\n0 1 2.5 4\n1 2 1.5 0\n")
        out = tmp_path / "weights.txt"
        result = runner.invoke(main, ["weights", "--topology", str(topology),
                                      "--mode", "boundary_length", "--out", str(out)])
        assert result.exit_code == 0
        assert "nonzero pairs: 2" in result.output
        assert "2.5" in out.read_text()

    def test_lane_mode_islands_reported(self, runner, tmp_path):
        topology = tmp_path / "zones.topology"
        topology.write_text("zones 3\n0 1 2.5 4\n1 2 1.5 0\n")
        result = runner.invoke(main, ["weights", "--topology", str(topology),
                                      "--mode", "lane_count"])
        assert result.exit_code == 0
        assert "islands: 1" in result.output

    def test_bad_topology_exit_2(self, runner, tmp_path):
        topology = tmp_path / "zones.topology"
        topology.write_text("0 1 2.5 4\n")
        result = runner.invoke(main, ["weights", "--topology", str(topology)])
        assert result.exit_code == 2


    def test_topology_bad_pair_exit_2_with_lineno(self, runner, tmp_path):
        topology = tmp_path / "t.topology"
        topology.write_text("zones 3\n0 1 1.0 2\n1 1 1.0 2\n")
        result = runner.invoke(main, ["weights", "--topology", str(topology)])
        assert result.exit_code == 2
        assert "t.topology:3: zone 1 paired with itself" in result.output
        assert isinstance(result.exception, SystemExit)


class TestSimulateCommand:
    def test_simulate_writes_files(self, runner, tmp_path):
        data, truth, topology = simulate_small(runner, tmp_path)
        assert data.exists() and truth.exists() and topology.exists()
        payload = json.loads(truth.read_text())
        assert "beta" in payload and payload["seed"] == 1

    def test_deterministic_bytes(self, runner, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        d1, t1, _ = simulate_small(runner, tmp_path / "a", seed=3)
        d2, t2, _ = simulate_small(runner, tmp_path / "b", seed=3)
        assert d1.read_bytes() == d2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()

    def test_phi_mode_override(self, runner, tmp_path):
        data = tmp_path / "zones.csv"
        truth = tmp_path / "truth.json"
        result = runner.invoke(main, ["simulate", "--lattice", "3", "--seed", "0",
                                      "--phi-mode", "none", "--out", str(data),
                                      "--truth-out", str(truth)])
        assert result.exit_code == 0
        assert json.loads(truth.read_text())["phi_mode"] == "none"


    @pytest.mark.parametrize("fields,message", [
        ({"beta": 3}, "beta must map coefficient labels to finite numbers"),
        ({"beta": {"intercept": "a"}}, "beta must map coefficient labels to finite numbers"),
        ({"sigma_theta2": -1}, "sigma_theta2 must be finite and > 0, got -1"),
        ({"tau_c": 0}, "tau_c must be finite and > 0, got 0"),
        ({"phi_target_sd": "a"}, "phi_target_sd must be null or finite and >= 0, got 'a'"),
        ({"phi_mode": "car"}, "unknown phi_mode 'car'"),
    ])
    def test_bad_truth_exit_2(self, runner, tmp_path, fields, message):
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"beta": {"intercept": 1.0}, **fields}))
        result = runner.invoke(main, ["simulate", "--lattice", "3", "--truth", str(truth),
                                      "--out", str(tmp_path / "zones.csv")])
        assert result.exit_code == 2
        assert f"truth.json: {message}" in result.output
        assert isinstance(result.exception, SystemExit)


class TestFitCommand:
    def test_fit_and_report(self, runner, tmp_path):
        data, _, topology = simulate_small(runner, tmp_path, seed=5, lattice=4)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["fit", "--data", str(data), "--weights", str(topology),
                                      "--chains", "2", "--burnin", "400", "--iters", "600",
                                      "--seed", "9", "--out", str(out)])
        assert result.exit_code in (0, 4), result.output
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["config"]["burn_in"] == 400
        assert "intercept" in payload["parameters"]

    def test_default_protocol_echoed_in_help(self, runner):
        result = runner.invoke(main, ["fit", "--help"])
        assert "default: 2" in result.output        # chains
        assert "default: 20000" in result.output    # burn-in
        assert "default: 50000" in result.output    # posterior iterations

    def test_nonconverged_exit_4(self, runner, tmp_path):
        data, _, topology = simulate_small(runner, tmp_path, seed=7, lattice=5)
        result = runner.invoke(main, ["fit", "--data", str(data), "--weights", str(topology),
                                      "--burnin", "60", "--iters", "80", "--seed", "0"])
        assert result.exit_code == 4
        assert "converge" in result.output

    @pytest.mark.parametrize("field", ["fixed_tau_c", "fixed_sigma_theta2"])
    def test_infinite_fixed_hyperparameter_exit_2(self, runner, tmp_path, field):
        data, _, topology = simulate_small(runner, tmp_path, seed=5, lattice=4)
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"{field}": Infinity}}')
        result = runner.invoke(main, ["fit", "--data", str(data), "--weights", str(topology),
                                      "--spec", str(spec), "--burnin", "10", "--iters", "10"])
        assert result.exit_code == 2
        assert f"spec.json: {field} must be finite and > 0" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("text,message", [
        ('"abc"', "spec.json: expected a JSON object, got str"),
        ('{"coef_priors": 5}', "spec.json: coef_priors must map labels to normal priors"),
        ('{"sigma_theta_prior": 5}', "spec.json: sigma_theta_prior must be a GammaPrior"),
        ('{"default_coef_prior": {"mean": "a"}}', "spec.json: normal prior needs a finite mean"),
        ('{"covariates": [[1]]}', "spec.json: covariates must be names"),
        ('{"include_phi": "no"}', "spec.json: include_phi must be true or false, got 'no'"),
    ])
    def test_bad_spec_exit_2(self, runner, tmp_path, text, message):
        data, _, topology = simulate_small(runner, tmp_path, seed=5, lattice=4)
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        result = runner.invoke(main, ["fit", "--data", str(data), "--weights", str(topology),
                                      "--spec", str(spec), "--burnin", "5", "--iters", "5"])
        assert result.exit_code == 2
        assert message in result.output
        assert isinstance(result.exception, SystemExit)

    def test_weight_matrix_error_is_reported(self, runner, tmp_path):
        data, _, _ = simulate_small(runner, tmp_path, seed=5, lattice=3)
        w = tmp_path / "w.txt"
        w.write_text("zones 9\n0 1 1.0\n1 2 nan\n")
        result = runner.invoke(main, ["fit", "--data", str(data), "--weights", str(w),
                                      "--burnin", "5", "--iters", "5"])
        assert result.exit_code == 2
        assert "w.txt:3: weight nan" in result.output

    @pytest.mark.parametrize("entries,message", [
        ("1 2 1.0 2\n0 1 1.0", "w.txt:3: expected 'i j boundary_km lanes'"),
        ("1 2 1.0\n0 1 1.0 2", "w.txt:3: expected 'i j w'"),
        ("0 1", "w.txt:2: expected 'i j w'"),
    ])
    def test_first_entry_picks_the_weights_reader(self, runner, tmp_path, entries, message):
        data, _, _ = simulate_small(runner, tmp_path, seed=5, lattice=3)
        w = tmp_path / "w.txt"
        w.write_text(f"zones 9  # 3 x 3\n{entries}\n")
        result = runner.invoke(main, ["fit", "--data", str(data), "--weights", str(w),
                                      "--burnin", "5", "--iters", "5"])
        assert result.exit_code == 2
        assert message in result.output

    def test_bad_dataset_exit_2(self, runner, tmp_path):
        data = tmp_path / "zones.csv"
        data.write_text("zone_id,area_km2\n0,1.0\n")
        result = runner.invoke(main, ["fit", "--data", str(data),
                                      "--weights", str(data)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("damage,message", [
        (lambda text: text.replace("\n", "\n0,1.0\n", 1), "zones.csv:2: expected 11 fields, got 2"),
        (lambda text: text.replace("Grid", "Gr\xefd", 1), "zones.csv: not UTF-8 text"),
    ])
    def test_bad_dataset_row_exit_2(self, runner, tmp_path, damage, message):
        data, _, topology = simulate_small(runner, tmp_path, seed=5, lattice=3)
        data.write_bytes(damage(data.read_text()).encode("latin-1"))
        result = runner.invoke(main, ["fit", "--data", str(data), "--weights", str(topology),
                                      "--burnin", "5", "--iters", "5"])
        assert result.exit_code == 2
        assert message in result.output
        assert isinstance(result.exception, SystemExit)


class TestRecoverCommand:
    def test_single_rep_smoke(self, runner, tmp_path):
        out = tmp_path / "coverage.json"
        result = runner.invoke(main, ["recover", "--reps", "1", "--lattice", "4",
                                      "--seed", "2", "--burnin", "300", "--iters", "500",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["reps"] == 1
        assert "intercept" in payload["coverage"]

    def test_truth_missing_field_exit_2(self, runner, tmp_path):
        truth = tmp_path / "truth.json"
        truth.write_text('{"sigma_theta2": 0.1}\n')
        result = runner.invoke(main, ["recover", "--truth", str(truth), "--reps", "1",
                                      "--lattice", "4", "--burnin", "100", "--iters", "100"])
        assert result.exit_code == 2


class TestCompareCommand:
    def test_compare_two_reports(self, runner, tmp_path):
        data, _, topology = simulate_small(runner, tmp_path, seed=11, lattice=4)
        reports = []
        for i, args in enumerate((["--burnin", "300", "--iters", "400", "--seed", "1"],
                                  ["--burnin", "300", "--iters", "400", "--seed", "2"])):
            out = tmp_path / f"report{i}.json"
            result = runner.invoke(main, ["fit", "--data", str(data),
                                          "--weights", str(topology), "--out", str(out)]
                                   + args)
            assert result.exit_code in (0, 4)
            reports.append(str(out))
        result = runner.invoke(main, ["compare"] + reports)
        assert result.exit_code == 0
        assert "delta DIC" in result.output

    @pytest.mark.parametrize("damage,message", [
        (lambda text: text[:len(text) // 2], "invalid JSON"),
        (lambda text: "[]", "expected a JSON object, got list"),
        (lambda text: json.dumps(dict(json.loads(text), extra=1)),
         "PosteriorReport.__init__() got an unexpected keyword argument 'extra'"),
        (lambda text: json.dumps(dict(json.loads(text), alpha=3)), "alpha must be an object"),
        (lambda text: json.dumps(dict(json.loads(text), dic="low")), "dic must be a number"),
    ])
    def test_bad_report_exit_2(self, runner, tmp_path, damage, message):
        data, _, topology = simulate_small(runner, tmp_path, seed=11, lattice=3)
        good = tmp_path / "good.json"
        runner.invoke(main, ["fit", "--data", str(data), "--weights", str(topology),
                             "--burnin", "5", "--iters", "5", "--out", str(good)])
        bad = tmp_path / "bad.json"
        bad.write_text(damage(good.read_text()))
        result = runner.invoke(main, ["compare", str(good), str(bad)])
        assert result.exit_code == 2
        assert f"bad.json: {message}" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_single_report_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", str(tmp_path / "only.json")])
        assert result.exit_code == 2


class TestSummaryCommand:
    def test_summary(self, runner, tmp_path):
        data, _, _ = simulate_small(runner, tmp_path, seed=13)
        result = runner.invoke(main, ["summary", "--data", str(data)])
        assert result.exit_code == 0
        assert "access_density" in result.output
