import csv
import itertools
import json
import os
import warnings

import numpy as np
import pytest

from netcert import cli, crown, frown, relax
from netcert.model import (
    PerturbationSpec,
    generate_random_network,
    load_network,
    load_sample,
    save_network,
    save_sample,
)

from conftest import boundary_sample, data_path
from test_extreme_inputs import FROWN, NORMS, RADII, SCALES, SEEDS


def run(args):
    return cli.main(args)


def test_bounds_matches_golden(tmp_path):
    out = tmp_path / "bounds.json"
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "0.5", "--method", "crown", "--all-layers",
              "--out", str(out)])
    assert rc == 0
    got = json.load(open(out))
    golden = json.load(open(data_path("golden_toy_crown_bounds.json")))
    for key in ("method", "p", "eps", "gamma_lower", "gamma_upper", "layers"):
        assert got[key] == golden[key]


def test_every_method_prints_a_zero_bound_as_positive_zero(tmp_path):
    # an upper bound is 0.0 minus the negated row's least value in every
    # engine, so the constant-gap net's zero bounds print as 0.0, not -0.0
    printed = {}
    for method in ("crown", "frown", "lp"):
        out = tmp_path / f"{method}.json"
        assert run(["bounds", data_path("constgap.json"),
                    data_path("linear2_sample.json"), "--eps", "0.5",
                    "--method", method, "--out", str(out)]) == 0
        got = json.load(open(out))
        printed[method] = [repr(v) for key in ("gamma_lower", "gamma_upper")
                           for v in got[key]]
    assert printed["crown"] == printed["frown"] == printed["lp"]
    assert printed["lp"] == ["1.0", "0.0", "1.0", "0.0"]


def test_crown_bounds_ignore_frown_flags(tmp_path):
    # settings that frown rejects leave a crown query untouched
    out = tmp_path / "bounds.json"
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "0.5", "--method", "crown", "--iters", "0", "--step",
              "-1", "--group-size", "0", "--restarts", "0", "--out", str(out)])
    assert rc == 0
    golden = json.load(open(data_path("golden_toy_crown_bounds.json")))
    got = json.load(open(out))
    assert (got["gamma_lower"], got["gamma_upper"]) == (
        golden["gamma_lower"], golden["gamma_upper"])
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "0.5", "--method", "frown", "--iters", "0"])
    assert rc == 1


def test_certify_ignores_frown_flags_for_crown_and_lp(tmp_path):
    # settings that frown rejects leave a crown or lp search untouched
    for files in (["toy_relu.json", "toy_sample.json"],
                  ["linear2.json", "linear2_sample.json"]):
        files = [data_path(name) for name in files]
        for method, bad in (("crown", ["--iters", "0"]),
                            ("lp", ["--group-size", "0"])):
            radii = []
            for flags in ([], bad):
                out = tmp_path / "cert.json"
                assert run(["certify", *files, "--method", method, *flags,
                            "--out", str(out)]) == 0
                radii.append(json.load(open(out))["epsilon_certified"])
            assert radii[0] == radii[1]
        assert run(["certify", *files, "--method", "frown",
                    "--iters", "0"]) == 1


@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_tangent_bounds_match_golden(tmp_path, act):
    # generate_random_network(0, [3, 10, 10, 2], act) at x0 =
    # default_rng(0).uniform(-1, 1, 3): eps 1.0 puts hidden neurons in
    # case1..case4 and eps 5e-13 gives degenerate intervals beside
    # one-sided ones; the bounds are compared bit for bit
    golden = json.load(open(data_path(f"golden_{act}_crown_bounds.json")))
    assert len(golden) == 6
    for want in golden:
        out = tmp_path / "bounds.json"
        rc = run(["bounds", data_path(f"{act}_3_10_10_2.json"),
                  data_path("small3_sample.json"), "--eps", repr(want["eps"]),
                  "--p", want["p"], "--method", "crown", "--all-layers",
                  "--out", str(out)])
        assert rc == 0
        got = json.load(open(out))
        for key in ("method", "p", "eps", "gamma_lower", "gamma_upper",
                    "layers"):
            assert got[key] == want[key], (want["p"], want["eps"], key)


@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_single_menu_lp_bounds_are_crowns_bit_for_bit(tmp_path, act):
    # the single menu offers crown's own line per neuron and side, so lp
    # answers every layer with crown's closed form: the same bits, at every
    # radius and norm of the tangent golden files the LP takes
    for p, eps in itertools.product(("1", "inf"), ("1.0", "5e-13")):
        docs = []
        for method in ("crown", "lp"):
            out = tmp_path / f"{method}.json"
            assert run(["bounds", data_path(f"{act}_3_10_10_2.json"),
                        data_path("small3_sample.json"), "--eps", eps,
                        "--p", p, "--method", method, "--lines", "single",
                        "--all-layers", "--out", str(out)]) == 0
            docs.append(json.load(open(out)))
        for key in ("gamma_lower", "gamma_upper", "layers"):
            assert docs[0][key] == docs[1][key], (p, eps, key)


@pytest.mark.parametrize("lines", ["single", "multi"])
@pytest.mark.parametrize("p", ["inf", "1"])
@pytest.mark.parametrize("net, sample", [("toy_relu", "toy_sample"),
                                         ("constgap", "linear2_sample")])
def test_dump_lp_matches_golden(tmp_path, net, sample, p, lines):
    # the output-layer LPs as --dump-lp writes them, compared byte for byte.
    # Both nets have one hidden layer, so every row comes from the exact
    # layer-1 bounds; constgap's output layer has zero rows and a bias, so
    # its objectives read "0" and "0 + 1.0"
    dump = tmp_path / "out.lp"
    rc = run(["bounds", data_path(f"{net}.json"), data_path(f"{sample}.json"),
              "--eps", "0.5", "--p", p, "--method", "lp", "--lines", lines,
              "--dump-lp", str(dump), "--out", str(tmp_path / "bounds.json")])
    assert rc == 0
    golden = data_path(os.path.join("golden_lp", f"{net}_p{p}_{lines}.lp"))
    assert dump.read_bytes() == open(golden, "rb").read()


def test_tangent_golden_nets_cover_every_case():
    tags = set()
    for act in ("sigmoid", "tanh"):
        net = load_network(data_path(f"{act}_3_10_10_2.json"))
        x0, _ = load_sample(data_path("small3_sample.json"))
        for p in (1.0, 2.0, np.inf):
            for eps in (1.0, 5e-13):
                bounds = crown.propagate(net, PerturbationSpec(x0, p, eps))
                for k in range(1, net.m):
                    for spaces in relax.layer_line_spaces(
                            act, *bounds.layer(k)):
                        tags.update(sp.case_tag for sp in spaces)
    assert tags == set(relax.CASE_TAGS) - {"l<0<u"}


def test_frown_bounds_dominate_golden(tmp_path):
    out = tmp_path / "bounds.json"
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "0.5", "--method", "frown", "--out", str(out)])
    assert rc == 0
    got = json.load(open(out))
    golden = json.load(open(data_path("golden_toy_crown_bounds.json")))
    assert got["gamma_lower"][0] >= golden["gamma_lower"][0]
    assert got["gamma_upper"][0] <= golden["gamma_upper"][0]
    # the flat lower line is optimal here
    assert got["gamma_lower"][0] == pytest.approx(0.0, abs=1e-3)


def test_lp_with_p2_exits_2(capsys):
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "0.5", "--method", "lp", "--p", "2"])
    assert rc == 2
    rc = run(["certify", data_path("linear2.json"),
              data_path("linear2_sample.json"), "--method", "lp", "--p", "2"])
    assert rc == 2


def test_infinite_eps_exits_1(capsys):
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "inf"])
    assert rc == 1
    assert "epsilon must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["crown", "frown"])
def test_overflow_cells_write_only_the_error_line(tmp_path, capsys, method):
    # the overflow cells of the extreme-input grid through the command line,
    # with warnings turned into errors: each exits 0 with nothing on stderr,
    # or 1 with the one error line and no numpy warning before it
    cells = [(data_path("tanh_3_10_10_2.json"), data_path("small3_sample.json"),
              1e308, "inf")]
    for act, scale, seed in itertools.product(
            ("relu", "sigmoid", "tanh"), SCALES, SEEDS):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale)
        net_path = tmp_path / f"{act}-{scale:g}-{seed}.json"
        sample_path = tmp_path / f"sample-{seed}.json"
        save_network(net, net_path)
        save_sample(np.random.default_rng(seed).uniform(-1.0, 1.0, 4), 0,
                    sample_path)
        cells += [(net_path, sample_path, eps, "inf" if p == np.inf
                   else str(int(p)))
                  for eps, p in itertools.product(RADII, NORMS)
                  if scale >= 1e150 or eps >= 1e300]
    failed = 0
    for net_path, sample_path, eps, p in cells:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["bounds", str(net_path), str(sample_path), "--eps",
                      repr(eps), "--p", p, "--method", method, "--iters",
                      str(FROWN.max_iters), "--out", str(tmp_path / "b.json")])
        err = capsys.readouterr().err
        if rc == 0:
            assert err == "", (net_path, eps, p)
        else:
            failed += 1
            assert rc == 1 and err.startswith("error: "), (net_path, eps, p)
            assert err.count("\n") == 1, (net_path, eps, p, err)
    assert failed > 0


@pytest.mark.parametrize("label", ["1.5", "true", '"1"'])
def test_non_integer_label_exits_1(tmp_path, capsys, label):
    sample = tmp_path / "sample.json"
    sample.write_text('{"x0": [0.0], "label": %s}' % label)
    for command in (["bounds", "--eps", "0.5"], ["certify"]):
        rc = run([command[0], data_path("toy_relu.json"), str(sample),
                  *command[1:]])
        assert rc == 1
        assert "label must be an integer" in capsys.readouterr().err


def test_mode_flag_removed():
    with pytest.raises(SystemExit):
        run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
             "--eps", "0.5", "--mode", "per-neuron"])


def test_missing_file_exits_1():
    rc = run(["bounds", "no-such-net.json", data_path("toy_sample.json"),
              "--eps", "0.5"])
    assert rc == 1


def test_certify_linear_fixture(tmp_path):
    out = tmp_path / "cert.json"
    rc = run(["certify", data_path("linear2.json"),
              data_path("linear2_sample.json"), "--out", str(out)])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["epsilon_certified"] == pytest.approx(0.5, rel=1.5e-3)
    assert doc["mode"] == "untargeted"
    assert not doc["cap_hit"]


def test_certify_cap_flag(tmp_path):
    out = tmp_path / "cert.json"
    rc = run(["certify", data_path("constgap.json"),
              data_path("linear2_sample.json"), "--out", str(out)])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["cap_hit"] is True
    assert doc["epsilon_certified"] == 10.0


def test_dump_lp_flag(tmp_path):
    dump = tmp_path / "problems.lp"
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "0.5", "--method", "lp", "--dump-lp", str(dump),
              "--out", str(tmp_path / "b.json")])
    assert rc == 0
    text = dump.read_text()
    assert "minimize" in text and "maximize" in text and "<=" in text


def test_lp_bounds_report_every_bound_and_certify_finite_margins(tmp_path):
    # ``bounds`` solves both sides of every output; a search's probes solve
    # only the ones its margins read, and its JSON margins stay finite
    net = generate_random_network(2, [4, 6, 5, 3], "relu", scale=1.0)
    x0, label = boundary_sample(net, 42)
    files = [str(tmp_path / "net.json"), str(tmp_path / "sample.json")]
    save_network(net, files[0])
    save_sample(x0, label, files[1])
    out = tmp_path / "b.json"
    assert run(["bounds", *files, "--eps", "0.02", "--method", "lp",
                "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert np.all(np.isfinite(doc["gamma_lower"] + doc["gamma_upper"]))
    out = tmp_path / "c.json"
    assert run(["certify", *files, "--method", "lp", "--out", str(out)]) == 0
    text = out.read_text()
    assert "Infinity" not in text
    assert len(json.loads(text)["margins"]) == 2


@pytest.mark.parametrize("method", ["crown", "frown"])
def test_dump_lp_without_lp_exits_2(tmp_path, capsys, monkeypatch, method):
    # rejected before any bound is computed, and no file is written
    def no_bounds(*args, **kwargs):
        raise AssertionError("bounds computed")

    monkeypatch.setattr(crown, "propagate", no_bounds)
    monkeypatch.setattr(frown, "frown_propagate", no_bounds)
    dump = tmp_path / "problems.lp"
    rc = run(["bounds", data_path("toy_relu.json"), data_path("toy_sample.json"),
              "--eps", "0.5", "--method", method, "--dump-lp", str(dump)])
    assert rc == 2
    assert "--dump-lp" in capsys.readouterr().err
    assert not dump.exists()


def bench_config(tmp_path, timing: bool):
    nets, samples = [], []
    for seed in (0, 1):
        net = generate_random_network(seed, [3, 5, 4, 3], "relu", scale=1.0)
        path = tmp_path / f"net{seed}.json"
        save_network(net, path)
        nets.append(str(path))
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-0.5, 0.5, 3)
    import netcert.model as model
    label = int(np.argmax(model.forward(model.load_network(nets[0]), x0)))
    sp = tmp_path / "sample.json"
    save_sample(x0, label, sp)
    samples.append(str(sp))
    config = {
        "networks": nets,
        "samples": samples,
        "methods": ["crown", "frown"],
        "norms": ["inf", "1"],
        "rel_tol": 1e-2,
        "cap": 2.0,
        "frown": {"max_iters": 15, "group_size": 5},
        "timing": timing,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def test_bench_matrix_populates_all_cells(tmp_path):
    cfg = bench_config(tmp_path, timing=True)
    out_dir = tmp_path / "out"
    rc = run(["bench", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    doc = json.load(open(out_dir / "bench.json"))
    # 2 networks x 2 norms x 2 methods = 8 cells
    assert len(doc["cells"]) == 8
    assert all("error" not in cell for cell in doc["cells"])
    with open(out_dir / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # (network, p) rows
    for row in rows:
        assert row["eps_crown"] and row["eps_frown"]
        assert float(row["eps_frown"]) >= float(row["eps_crown"]) - 1e-9
        improv = float(row["improv_frown_pct"])
        radii = {c["method"]: c["mean_radius"] for c in doc["cells"]
                 if c["network"] == row["network"] and c["p"] == row["p"]}
        expected = 100 * (radii["frown"] - radii["crown"]) / radii["crown"]
        assert improv == pytest.approx(expected, abs=1e-12)


def test_bench_reruns_bit_identical_and_round_trip(tmp_path):
    cfg = bench_config(tmp_path, timing=False)
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["bench", str(cfg), "--out-dir", str(d1)]) == 0
    assert run(["bench", str(cfg), "--out-dir", str(d2)]) == 0
    assert (d1 / "bench.csv").read_text() == (d2 / "bench.csv").read_text()
    # full-precision round trip: CSV floats reparse to the stored radii
    doc = json.load(open(d1 / "bench.json"))
    with open(d1 / "bench.csv") as fh:
        for row in csv.DictReader(fh):
            radii = {c["method"]: c["mean_radius"] for c in doc["cells"]
                     if c["network"] == row["network"] and c["p"] == row["p"]}
            assert float(row["eps_crown"]) == radii["crown"]
            assert float(row["eps_frown"]) == radii["frown"]


def test_bench_worker_pool_matches_serial(tmp_path):
    cfg = bench_config(tmp_path, timing=False)
    d1, d2 = tmp_path / "s", tmp_path / "w"
    assert run(["bench", str(cfg), "--out-dir", str(d1)]) == 0
    os.environ[cli.WORKERS_ENV] = "2"
    try:
        assert run(["bench", str(cfg), "--out-dir", str(d2)]) == 0
    finally:
        del os.environ[cli.WORKERS_ENV]
    assert (d1 / "bench.csv").read_text() == (d2 / "bench.csv").read_text()


@pytest.mark.parametrize("workers", ["abc", "-1", "0", "1.5", ""])
def test_bench_rejects_a_bad_worker_count(tmp_path, capsys, monkeypatch,
                                          workers):
    # once "abc" failed with int()'s message and "-1" ran serially
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(toy_bench_doc()))
    monkeypatch.setenv(cli.WORKERS_ENV, workers)
    out_dir = tmp_path / "out"
    assert run(["bench", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: NETCERT_WORKERS must be an integer >= 1, "
                   f"got {workers!r}\n")
    assert not out_dir.exists()


def test_bench_partial_failure_recorded(tmp_path):
    cfg_doc = {
        "networks": [str(tmp_path / "missing.json")],
        "samples": [data_path("toy_sample.json")],
        "methods": ["crown"],
        "norms": ["inf"],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_doc))
    out_dir = tmp_path / "out"
    assert run(["bench", str(cfg), "--out-dir", str(out_dir)]) == 0
    doc = json.load(open(out_dir / "bench.json"))
    assert "error" in doc["cells"][0]


def toy_bench_doc(**changes):
    doc = {"networks": [data_path("toy_relu.json")],
           "samples": [data_path("toy_sample.json")],
           "methods": ["crown"], "rel_tol": 1e-2, "cap": 2.0}
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


@pytest.mark.parametrize("changes", [
    {"methods": None},                 # a required key missing
    {"norm": ["1"]},                   # once ignored, leaving p = inf
    {"methods": ["crown", "crwn"]},
    {"methods": []},
    {"lp_lines": "both"},
    {"norms": ["3"]},
    # once iterated per character, one error cell per character
    {"networks": data_path("toy_relu.json")},
    {"samples": data_path("toy_sample.json")},
    {"networks": []},
    # once error cells, or timing turned on
    {"cap": "10"},
    {"cap": True},
    {"rel_tol": -1},
    {"rel_tol": float("nan")},
    {"timing": "no"},
], ids=["missing-methods", "unknown-key", "unknown-method", "no-methods",
        "bad-lp-lines", "bad-norm", "string-networks", "string-samples",
        "no-networks", "string-cap", "bool-cap", "negative-rel-tol",
        "nan-rel-tol", "string-timing"])
def test_bench_rejects_malformed_config(tmp_path, capsys, changes):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(toy_bench_doc(**changes)))
    out_dir = tmp_path / "out"
    assert run(["bench", str(cfg), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


def test_bench_bad_frown_settings_fail_only_frown_cells(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(toy_bench_doc(methods=["crown", "frown"],
                                            frown={"iterations": 5})))
    out_dir = tmp_path / "out"
    assert run(["bench", str(cfg), "--out-dir", str(out_dir)]) == 0
    cells = {c["method"]: c for c in
             json.load(open(out_dir / "bench.json"))["cells"]}
    assert "error" not in cells["crown"]
    assert "iterations" in cells["frown"]["error"]
