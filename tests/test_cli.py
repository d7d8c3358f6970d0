import json
import os

import numpy as np
import pytest
from conftest import tiny_cfg

from minmaxvrp import cli
from minmaxvrp import problems as pb
from minmaxvrp import rollout as ro
from minmaxvrp import training as tr

DATA = os.path.join(os.path.dirname(__file__), "data")


def write_config(path, **kw):
    base = dict(kind="MTSP", N=4, m_min=2, m_max=2, batch_size=4,
                epoch_size=4, epochs=1, K=2, lr=1e-3,
                model=tiny_cfg("MTSP"))
    base.update(kw)
    tc = tr.TrainConfig(**base)
    path.write_text(json.dumps(tc.to_dict()))
    return tc


def run(argv, capsys=None):
    code = cli.main([str(a) for a in argv])
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--kind", "MTSP", "--n", 6, "--count", 5, "--seed", 3]
    assert run(argv + ["--out", a]) == 0
    assert run(argv + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["gen", "--kind", "MTSP", "--n", 6, "--count", 5,
                "--seed", 4, "--out", b]) == 0
    assert a.read_bytes() != b.read_bytes()
    instances = pb.read_instances(a)
    assert len(instances) == 5
    assert all(ins.N == 6 and ins.kind == "MTSP" for ins in instances)


def test_gen_count_zero_and_m_range(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert run(["gen", "--kind", "MTSP", "--n", 6, "--count", 0,
                "--out", out]) == 0
    assert out.read_text() == ""
    assert pb.read_instances(out) == []

    out2 = tmp_path / "range.jsonl"
    assert run(["gen", "--kind", "MDVRP", "--n", 8, "--d", 2, "--m-min", 2,
                "--m-max", 4, "--count", 30, "--seed", 1, "--out", out2]) == 0
    ms = {ins.M for ins in pb.read_instances(out2)}
    assert ms == {2, 3, 4}


def test_gen_error_paths(tmp_path, capsys):
    code, _out, err = run(["gen", "--kind", "MTSP", "--n", 6, "--count", 2,
                           "--out", tmp_path / "no" / "dir.jsonl"], capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    code, _out, err = run(["gen", "--kind", "MTSP", "--n", 6, "--count", 2,
                           "--m-min", 1, "--out", tmp_path / "x"], capsys)
    assert code == 1 and "m-min" in err


# ---------------------------------------------------------------------------
# train / finetune
# ---------------------------------------------------------------------------

def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    tc = write_config(cfg_path, epochs=2)
    out_dir = tmp_path / "run"
    code, out, _err = run(["train", "--config", cfg_path,
                           "--out-dir", out_dir], capsys)
    assert code == 0
    rows = pb.read_jsonl(out_dir / "metrics.jsonl", dict)
    assert [r["epoch"] for r in rows] == [0, 1]
    cfg, params, opt = tr.load_checkpoint(out_dir / "checkpoint.ckpt")
    assert cfg.to_dict() == tc.model.to_dict()
    assert opt.step_count == 2  # one adam step per single-batch epoch
    assert "finished 2 epochs" in out


def test_train_model_overrides_land_in_checkpoint(tmp_path):
    cfg_path = tmp_path / "train.json"
    write_config(cfg_path)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", cfg_path, "--out-dir", out_dir,
                "--pe", "sinusoidal", "--no-navigation-part"]) == 0
    cfg, params, _opt = tr.load_checkpoint(out_dir / "checkpoint.ckpt")
    assert cfg.pe == "sinusoidal"
    assert cfg.use_nav is False
    assert not any(".nav" in k for k in params)


def test_train_resume_checks_model(tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    write_config(cfg_path)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    ckpt = out_dir / "checkpoint.ckpt"

    assert run(["train", "--config", cfg_path, "--out-dir", out_dir,
                "--resume", ckpt]) == 0

    bad = tmp_path / "bad.json"
    write_config(bad, model=tiny_cfg("MTSP", d_model=32, d_ff=64))
    code, _out, err = run(["train", "--config", bad, "--out-dir", out_dir,
                           "--resume", ckpt], capsys)
    assert code == 1 and "does not match" in err


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    rec = tr.TrainConfig(kind="MTSP", N=4, model=tiny_cfg("MTSP")).to_dict()
    rec["optimizer"] = "adam"
    cfg_path.write_text(json.dumps(rec))
    code, _out, err = run(["train", "--config", cfg_path,
                           "--out-dir", tmp_path / "r"], capsys)
    assert code == 1 and "optimizer" in err


def _set(rec, path, value):
    *head, last = path
    for key in head:
        rec = rec[key]
    rec[last] = value


@pytest.mark.parametrize("field,value", [
    (("N",), "8"), (("K",), 2.5), (("epochs",), True),
    (("model", "d_model"), "32"), (("model", "use_nav"), "no"),
    (("model",), "default")])
def test_train_config_type_errors_name_the_file_and_field(tmp_path, capsys,
                                                          field, value):
    cfg_path = tmp_path / "train.json"
    rec = write_config(cfg_path).to_dict()
    _set(rec, field, value)
    cfg_path.write_text(json.dumps(rec))
    code, _out, err = run(["train", "--config", cfg_path,
                           "--out-dir", tmp_path / "r"], capsys)
    assert code == 1 and err.count("\n") == 1
    assert str(cfg_path) in err and field[-1] in err
    assert not (tmp_path / "r").exists()


def test_train_config_that_is_not_json_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text('{"kind": "MTSP" "N": 4}')
    code, _out, err = run(["train", "--config", cfg_path,
                           "--out-dir", tmp_path / "r"], capsys)
    assert code == 1 and err.count("\n") == 1
    assert f"{cfg_path} is not JSON" in err


@pytest.mark.parametrize("text,what", [
    ("not a checkpoint{", "is not JSON"),
    ("[1, 2]", "holds a list"),
    ('{"format_version": 2, "model": {"kind": "MTSP"}, "optimizer": {}}',
     "no 'params' entry"),
    ('{"format_version": 2, "model": {"kind": "MTSP", "d_model": "32"}, '
     '"params": {}, "optimizer": {}}', "field d_model"),
])
def test_solve_bad_checkpoint_names_the_file(tmp_path, capsys, text, what):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(text)
    data = tmp_path / "data.jsonl"
    assert run(["gen", "--kind", "MTSP", "--n", 5, "--count", 1,
                "--out", data]) == 0
    code, _out, err = run(["solve", "--checkpoint", ckpt, "--dataset", data,
                           "--out", tmp_path / "sol.jsonl"], capsys)
    assert code == 1 and err.count("\n") == 1
    assert str(ckpt) in err and what in err


def test_finetune_adopts_checkpoint_model(tmp_path):
    cfg_path = tmp_path / "train.json"
    write_config(cfg_path)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0

    ft_cfg = tmp_path / "ft.json"
    rec = tr.TrainConfig(kind="MTSP", N=4, epochs=0, lr=1e-5,
                         model=tiny_cfg("MTSP")).to_dict()
    del rec["model"]  # finetune should pick the stored model up
    ft_cfg.write_text(json.dumps(rec))
    ft_dir = tmp_path / "ft"
    assert run(["finetune", "--checkpoint", out_dir / "checkpoint.ckpt",
                "--config", ft_cfg, "--out-dir", ft_dir]) == 0
    cfg, params, _ = tr.load_checkpoint(ft_dir / "checkpoint.ckpt")
    assert cfg.d_model == 16
    _, before, _ = tr.load_checkpoint(out_dir / "checkpoint.ckpt")
    for k in before:
        assert np.array_equal(before[k].data, params[k].data)


@pytest.mark.parametrize("command", ["finetune", "resume"])
def test_finetune_and_resume_read_the_checkpoint_once(tmp_path, monkeypatch,
                                                       command):
    cfg_path = tmp_path / "train.json"
    write_config(cfg_path)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    ckpt = out_dir / "checkpoint.ckpt"
    reads = []
    read_json_file = pb.read_json_file

    def counted(path, what, parse):
        reads.append(what)
        return read_json_file(path, what, parse)

    monkeypatch.setattr(pb, "read_json_file", counted)
    argv = (["finetune", "--checkpoint", ckpt] if command == "finetune"
            else ["train", "--resume", ckpt])
    assert run(argv + ["--config", cfg_path,
                       "--out-dir", tmp_path / command]) == 0
    assert reads.count("checkpoint") == 1


def _poison_checkpoint(path, section, name, value):
    """Set the first entry of one stored array (section "params",
    "m" or "v") to value."""
    payload = json.loads(path.read_text())
    records = (payload["params"] if section == "params"
               else payload["optimizer"][section])
    arr = tr.records_to_arrays({name: records[name]})[name]
    arr.flat[0] = value
    records.update(tr.arrays_to_records({name: arr}))
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solve_rejects_a_non_finite_parameter_naming_the_entry(
        trained, tmp_path, capsys, value):
    ckpt, data = trained
    _poison_checkpoint(ckpt, "params", "layer0.cust_attn.v", value)
    code, _out, err = run(["solve", "--checkpoint", ckpt, "--dataset", data,
                           "--out", tmp_path / "x.jsonl"], capsys)
    assert code == 1 and err.count("\n") == 1
    assert str(ckpt) in err
    assert "params entry layer0.cust_attn.v holds NaN or inf" in err


def test_resume_rejects_a_non_finite_adam_moment_naming_the_entry(
        tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    write_config(cfg_path)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    ckpt = out_dir / "checkpoint.ckpt"
    _poison_checkpoint(ckpt, "m", "dec.logit", float("nan"))
    code, _out, err = run(["train", "--config", cfg_path, "--resume", ckpt,
                           "--out-dir", tmp_path / "again"], capsys)
    assert code == 1 and err.count("\n") == 1
    assert str(ckpt) in err
    assert "optimizer.m entry dec.logit holds NaN or inf" in err
    assert not (tmp_path / "again").exists()


# ---------------------------------------------------------------------------
# solve / eval
# ---------------------------------------------------------------------------

@pytest.fixture()
def trained(tmp_path):
    cfg_path = tmp_path / "train.json"
    write_config(cfg_path, N=5)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    data = tmp_path / "data.jsonl"
    assert run(["gen", "--kind", "MTSP", "--n", 5, "--count", 3,
                "--seed", 9, "--out", data]) == 0
    return out_dir / "checkpoint.ckpt", data


def test_solve_and_eval_against_oracle(trained, tmp_path, capsys):
    ckpt, data = trained
    sols = tmp_path / "sols.jsonl"
    code, out, _err = run(["solve", "--checkpoint", ckpt, "--dataset", data,
                           "--out", sols, "--per", 2, "--aug8"], capsys)
    assert code == 0
    assert "solved 3 instances: mean objective " in out
    assert "wallclock" in out
    mean = float(out.split("mean objective ")[1].split(",")[0])
    assert round(mean, 4) == mean  # printed with 4 decimals

    records = [json.loads(l) for l in sols.read_text().splitlines()]
    instances = pb.read_instances(data)
    for rec, ins in zip(records, instances):
        sol, obj, _perm, _aug = pb.solution_from_record(rec)
        assert pb.validate(sol, ins) is None
        assert abs(obj - pb.minmax_objective(sol, ins)) < 1e-9

    code, out, _err = run(["eval", "--solutions", sols, "--dataset", data,
                           "--ref", "oracle"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # 3 instances + summary
    assert "mean gap" in lines[-1]
    for line in lines[:-1]:
        gap = float(line.split("\t")[3].rstrip("%"))
        assert gap >= -1e-9  # oracle is a lower bound

    code, out, _err = run(["eval", "--solutions", sols, "--dataset", data,
                           "--ref", sols], capsys)
    assert code == 0
    assert "mean gap 0.0000%" in out


def test_eval_count_mismatch(trained, tmp_path, capsys):
    ckpt, data = trained
    sols = tmp_path / "sols.jsonl"
    assert run(["solve", "--checkpoint", ckpt, "--dataset", data,
                "--out", sols]) == 0
    short = tmp_path / "short.jsonl"
    short.write_text(sols.read_text().splitlines()[0] + "\n")
    code, _out, err = run(["eval", "--solutions", short, "--dataset", data],
                          capsys)
    assert code == 1 and "1 solutions vs 3 instances" in err


@pytest.mark.parametrize("flag", ["--solutions", "--ref"])
@pytest.mark.parametrize("fault,what", [
    ("truncate", "Expecting"), ("no_start_depots", "no 'start_depots' entry"),
    ("list", "holds a list"),
    pytest.param(0.5, "routes[0][0] must be an integer, got 0.5", id="float"),
    pytest.param(True, "routes[0][0] must be an integer, got true", id="bool")])
def test_eval_bad_solutions_line_names_the_file_and_line(
        trained, tmp_path, capsys, flag, fault, what):
    ckpt, data = trained
    sols = tmp_path / "sols.jsonl"
    assert run(["solve", "--checkpoint", ckpt, "--dataset", data,
                "--out", sols]) == 0
    lines = sols.read_text().splitlines()
    if fault == "truncate":
        lines[2] = lines[2][:34]
    elif fault == "no_start_depots":
        rec = json.loads(lines[2])
        del rec["start_depots"]
        lines[2] = json.dumps(rec)
    elif fault == "list":
        lines[2] = "[1, 2]"
    else:
        rec = json.loads(lines[2])
        rec["routes"][0][0] = fault
        lines[2] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    good = {"--solutions": sols, "--ref": sols}
    good[flag] = bad
    code, _out, err = run(["eval", "--dataset", data, "--solutions",
                           good["--solutions"], "--ref", good["--ref"]], capsys)
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {bad}:3: ") and what in err


def test_solve_gates_on_validate(trained, tmp_path, capsys, monkeypatch):
    ckpt, data = trained
    broken = pb.RouteSet(routes=[[0], [0]])  # duplicate customer

    def fake_infer(ins, cfg, params, n_per=1, use_aug8=False, seed=0):
        return ro.InferResult(broken, 1.0, 0, (0, 1))

    monkeypatch.setattr(cli.ro, "infer", fake_infer)
    code, _out, err = run(["solve", "--checkpoint", ckpt, "--dataset", data,
                           "--out", tmp_path / "x.jsonl"], capsys)
    assert code == 1 and "infeasible" in err


def test_solve_rejects_nan_coordinates_naming_the_line(trained, tmp_path,
                                                       capsys):
    ckpt, data = trained
    lines = data.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["customers"][0] = [float("nan"), 0.5]
    lines[1] = json.dumps(rec)
    bad = tmp_path / "nan.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, _out, err = run(["solve", "--checkpoint", ckpt, "--dataset", bad,
                           "--out", tmp_path / "x.jsonl"], capsys)
    assert code == 1
    assert err.count("\n") == 1
    assert f"{bad}:2:" in err
    assert "softmax" not in err


@pytest.mark.parametrize("field,value,what", [
    pytest.param("M", 2.7, "M must be an integer, got 2.7", id="M-float"),
    pytest.param("M", True, "M must be an integer, got true", id="M-bool"),
    pytest.param("M", "2", 'M must be an integer, got "2"', id="M-string"),
    pytest.param("uid", -5, "uid must be an integer >= 0, got -5", id="uid-negative")])
def test_solve_rejects_a_non_integer_field_naming_the_line(
        trained, tmp_path, capsys, field, value, what):
    ckpt, data = trained
    lines = data.read_text().splitlines()
    rec = json.loads(lines[1])
    rec[field] = value
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, _out, err = run(["solve", "--checkpoint", ckpt, "--dataset", bad,
                           "--out", tmp_path / "x.jsonl"], capsys)
    assert code == 1 and err == f"error: {bad}:2: {what}\n"


def test_solve_kind_mismatch(trained, tmp_path, capsys):
    ckpt, _data = trained
    other = tmp_path / "mpdp.jsonl"
    assert run(["gen", "--kind", "MPDP", "--n", 6, "--count", 1,
                "--out", other]) == 0
    code, _out, err = run(["solve", "--checkpoint", ckpt, "--dataset", other,
                           "--out", tmp_path / "x"], capsys)
    assert code == 1 and "kind" in err


# ---------------------------------------------------------------------------
# parse-tsplib
# ---------------------------------------------------------------------------

def test_parse_tsplib_eil51(tmp_path, capsys):
    out = tmp_path / "eil51.jsonl"
    code, printed, _err = run(["parse-tsplib", "--in",
                               os.path.join(DATA, "eil51.tsp"),
                               "--m", 10, "--out", out], capsys)
    assert code == 0 and "51 nodes" in printed
    ins, = pb.read_instances(out)
    assert ins.kind == "MTSP" and ins.M == 10
    assert ins.N == 50 and ins.D == 1
    assert ins.depot_coords[0].tolist() == [37.0, 52.0]  # first listed node
    assert ins.coords[0].tolist() == [49.0, 49.0]
    assert ins.coords.max() > 1.0  # native units preserved


def test_parse_tsplib_errors(tmp_path, capsys):
    geo = tmp_path / "geo.tsp"
    geo.write_text("EDGE_WEIGHT_TYPE : GEO\nNODE_COORD_SECTION\n1 1 1\nEOF\n")
    code, _out, err = run(["parse-tsplib", "--in", geo, "--m", 2,
                           "--out", tmp_path / "o"], capsys)
    assert code == 1 and "GEO" in err

    empty = tmp_path / "empty.tsp"
    empty.write_text("EDGE_WEIGHT_TYPE : EUC_2D\nEOF\n")
    code, _out, err = run(["parse-tsplib", "--in", empty, "--m", 2,
                           "--out", tmp_path / "o"], capsys)
    assert code == 1 and "NODE_COORD_SECTION" in err

    bad = tmp_path / "bad.tsp"
    bad.write_text("EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
                   "1 37 fifty\nEOF\n")
    code, _out, err = run(["parse-tsplib", "--in", bad, "--m", 2,
                           "--out", tmp_path / "o"], capsys)
    assert code == 1 and "malformed" in err

    wrong_dim = tmp_path / "dim.tsp"
    wrong_dim.write_text("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
                         "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n")
    code, _out, err = run(["parse-tsplib", "--in", wrong_dim, "--m", 2,
                           "--out", tmp_path / "o"], capsys)
    assert code == 1 and "DIMENSION" in err

    wrong_dim.write_text("DIMENSION : three\nEDGE_WEIGHT_TYPE : EUC_2D\n"
                         "NODE_COORD_SECTION\n1 0 0\n2 1 1\n3 2 2\nEOF\n")
    code, _out, err = run(["parse-tsplib", "--in", wrong_dim, "--m", 2,
                           "--out", tmp_path / "o"], capsys)
    assert code == 1 and str(wrong_dim) in err and "DIMENSION 'three'" in err


def test_normalized_for_model():
    ins = pb.gen_uniform("MTSP", N=5, D=1, M=2, seed=0)
    assert cli.normalized_for_model(ins) is ins  # already in the unit square

    big = pb.Instance(
        kind="MTSP", coords=np.array([[0.0, 0.0], [30.0, 40.0], [10.0, 5.0]]),
        depot_coords=np.array([[20.0, 20.0]]), M=2)
    norm = cli.normalized_for_model(big)
    pts = np.concatenate([norm.coords, norm.depot_coords])
    assert pts.min() >= 0.0 and pts.max() <= 1.0
    # one shared scale: native distances are a constant multiple
    a = np.linalg.norm(big.coords[1] - big.coords[0])
    b = np.linalg.norm(norm.coords[1] - norm.coords[0])
    assert abs(a / b - 40.0) < 1e-9


# ---------------------------------------------------------------------------
# plot-data
# ---------------------------------------------------------------------------

def test_plot_data_two_runs(tmp_path, capsys):
    m1, m2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    rows1 = [{"epoch": e, "mean_obj": 2.0 - e / 10, "mean_baseline": 2.0,
              "lr": 1e-3, "wallclock": e * 1.0} for e in range(3)]
    m1.write_text(tr.metrics_to_text(rows1))
    m2.write_text(tr.metrics_to_text(rows1[:2]))
    out = tmp_path / "series.tsv"
    code, printed, _err = run(["plot-data", "--metrics", m1, m2,
                               "--out", out], capsys)
    assert code == 0 and "2 runs" in printed
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # 3 epochs + 2 epochs
    assert lines[0].split("\t") == ["run1", "0", "2.0"]
    assert {l.split("\t")[0] for l in lines} == {"run1", "run2"}


def test_plot_data_same_basename_keeps_runs_apart(tmp_path, capsys):
    # every run directory holds a metrics.jsonl, so stems collide
    rows = [{"epoch": 0, "mean_obj": 2.0, "mean_baseline": 2.0,
             "lr": 1e-3, "wallclock": 1.0}]
    paths = []
    for d in ("runA", "runB"):
        (tmp_path / d).mkdir()
        m = tmp_path / d / "metrics.jsonl"
        m.write_text(tr.metrics_to_text(rows))
        paths.append(m)
    out = tmp_path / "series.tsv"
    code, _out, _err = run(["plot-data", "--metrics", *paths,
                            "--out", out], capsys)
    labels = {l.split("\t")[0] for l in out.read_text().splitlines()}
    assert code == 0 and len(labels) == 2
    assert all("run" in lb for lb in labels)


def test_plot_data_empty_metrics_is_an_error(tmp_path, capsys):
    m = tmp_path / "empty.jsonl"
    m.write_text("")
    code, _out, err = run(["plot-data", "--metrics", m,
                           "--out", tmp_path / "o"], capsys)
    assert code == 1 and "no metrics" in err


def test_plot_data_bad_metrics_line_names_the_file_and_line(tmp_path, capsys):
    m = tmp_path / "metrics.jsonl"
    m.write_text(tr.metrics_to_text([{"epoch": 0, "mean_obj": 1.5},
                                     {"epoch": 1}]))
    code, _out, err = run(["plot-data", "--metrics", m,
                           "--out", tmp_path / "o"], capsys)
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {m}:2: no 'mean_obj' entry")
