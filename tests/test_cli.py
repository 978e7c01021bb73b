import json

import numpy as np
import pytest

from relaxstab import cli
from relaxstab.errors import CompatibilityError, ConfigError


def small_config(seed=11, a=2.0, endstates=None):
    return {
        "schema_version": 1,
        "seed": seed,
        "system": {"name": "jin_xin", "params": {"a": a}},
        "profile": {"endstates": endstates or [[1.0, 0.5], [0.0, 0.0]],
                    "n_points": 801},
        "domain": {"length": 45.0, "n_nodes": 97},
        "norms": {"s": 1, "alpha": 0.0},
        "hypotheses": {"eta_min": 10.0, "theta_req": 0.0},
        "resolvent": {"trials": 3,
                      "grid": {"re_lambda": 0.5, "im_max": 10.0, "n_im": 4,
                               "real_ray": {"min": 0.3, "max": 100.0, "n": 5}}},
        "dichotomy": {"lambda": [2.0, 0.0], "pairs": 8},
        "symmetrizer": {"theta_req": 0.0, "energy_trials": 8},
        "simulation": {"t_final": 8.0, "L_sim": 40.0, "n_points": 321,
                       "tau_c": 1.5},
    }


def test_config_missing_endstates_names_field():
    bad = small_config()
    del bad["profile"]["endstates"]
    with pytest.raises(ConfigError, match="endstates"):
        cli.RunConfig.from_dict(bad)


def test_config_bad_version_rejected():
    bad = small_config()
    bad["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        cli.RunConfig.from_dict(bad)


def test_unknown_pipeline_is_usage_error(tmp_path):
    cfg = cli.RunConfig.from_dict(small_config())
    assert cli.run(cfg, pipeline="nope", out_dir=str(tmp_path / "o")) == 2


def test_unknown_system_is_usage_error(tmp_path):
    data = small_config()
    data["system"]["name"] = "not_a_system"
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="hypotheses", out_dir=str(tmp_path / "o")) == 2


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cli.RunConfig.from_file(str(tmp_path / "nothing.json"))


def test_hypotheses_pipeline_passes(tmp_path):
    cfg = cli.RunConfig.from_dict(small_config())
    code = cli.run(cfg, pipeline="hypotheses", out_dir=str(tmp_path / "o"))
    assert code == 0
    rep = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
    assert rep["passed"] is True
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["passed"] is True


def test_supercharacteristic_hypotheses_refuted(tmp_path):
    data = small_config(a=1.0, endstates=[[2.0, 2.0], [2.0, 2.0]])
    data["hypotheses"]["theta_req"] = 0.01
    cfg = cli.RunConfig.from_dict(data)
    code = cli.run(cfg, pipeline="hypotheses", out_dir=str(tmp_path / "o"))
    assert code == 4
    rep = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
    assert rep["chf_pass"] is False
    assert rep["passed"] is False


def test_profile_pipeline_writes_artifacts(tmp_path):
    cfg = cli.RunConfig.from_dict(small_config())
    assert cli.run(cfg, pipeline="profile", out_dir=str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "profile.csv").exists()
    assert (tmp_path / "o" / "profile.csv.json").exists()


def test_main_entry_round_trip(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config()))
    code = cli.main(["run", "--config", str(cfg_path),
                     "--pipeline", "profile", "--out", str(tmp_path / "o")])
    assert code == 0
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_report_merges_and_validates(tmp_path):
    cfg = cli.RunConfig.from_dict(small_config())
    cli.run(cfg, pipeline="hypotheses", out_dir=str(tmp_path / "a"))
    cli.run(cfg, pipeline="hypotheses", out_dir=str(tmp_path / "b"))
    merged = cli.report([str(tmp_path / "a" / "summary.json"),
                         str(tmp_path / "b" / "summary.json")])
    assert len(merged) == 2
    for entry in merged.values():
        assert entry["passed"] is True

    with pytest.raises(ConfigError):
        cli.report([])

    tampered = json.loads((tmp_path / "b" / "summary.json").read_text())
    tampered["schema_version"] = 99
    (tmp_path / "b" / "summary.json").write_text(json.dumps(tampered))
    with pytest.raises(CompatibilityError):
        cli.report([str(tmp_path / "a" / "summary.json"),
                    str(tmp_path / "b" / "summary.json")])


def test_seed_variation_only_moves_estimates(tmp_path):
    # two runs differing only in seed: same verdicts, close constants
    for seed, tag in ((5, "a"), (6, "b")):
        cfg = cli.RunConfig.from_dict(small_config(seed=seed))
        code = cli.run(cfg, pipeline="resolvent-sweep",
                       out_dir=str(tmp_path / tag))
        assert code == 0
    sa = json.loads((tmp_path / "a" / "sweep.json").read_text())
    sb = json.loads((tmp_path / "b" / "sweep.json").read_text())
    assert sa["passed"] == sb["passed"] is True
    assert sa["agreement"] == sb["agreement"] == 1.0
    Ca, Cb = sa["constants"]["C"], sb["constants"]["C"]
    assert abs(Ca - Cb) <= 0.5 * max(Ca, Cb)


def test_numeric_failure_exit_code(tmp_path):
    # lambda = 0 sits on the essential-spectrum boundary: center spectrum
    data = small_config()
    data["dichotomy"]["lambda"] = [0.0, 0.0]
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="dichotomy", out_dir=str(tmp_path / "o")) == 3


def test_nonlinear_simulate_is_typed_failure(tmp_path, capsys):
    # the truncation certificate needs a linearized history: a nonlinear run
    # must end with exit code 3 and a message, not a traceback
    data = small_config()
    data["profile"]["n_points"] = 201
    data["simulation"] = {"mode": "nonlinear", "t_final": 1.0, "L_sim": 10.0,
                          "n_points": 41, "sample_every": 1, "tau_c": 0.2}
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="simulate", out_dir=str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "numeric failure in simulate" in err and "linearized" in err
    assert "Traceback" not in err


def test_worker_count_env_override(monkeypatch):
    from relaxstab.resolvent import worker_count
    monkeypatch.setenv("RELAXSTAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("RELAXSTAB_THREADS")
    assert worker_count(5) == 5


def test_optional_csv_dumps(tmp_path):
    data = small_config()
    data["dichotomy"]["dump_frames"] = True
    data["symmetrizer"]["dump_field"] = True
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="symmetrizer",
                   out_dir=str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "frames.csv").exists()
    assert (tmp_path / "o" / "symmetrizer_field.csv").exists()


def test_saint_venant_pipeline_through_cli(tmp_path):
    h1 = 1.2
    s = (h1 ** 1.5 - 1.0) / (h1 - 1.0)
    data = {
        "schema_version": 1, "seed": 3,
        "system": {"name": "saint_venant", "params": {"froude": 1.5}},
        "profile": {"endstates": [[h1, h1 ** 1.5], [1.0, 1.0]],
                    "speed": s, "L": 30.0, "n_points": 801},
        "hypotheses": {"eta_min": 10.0, "theta_req": 0.0},
    }
    cfg = cli.RunConfig.from_dict(data)
    code = cli.run(cfg, pipeline="hypotheses", out_dir=str(tmp_path / "sv"))
    assert code == 0
    rep = json.loads((tmp_path / "sv" / "hypotheses.json").read_text())
    assert rep["passed"] is True and rep["chf_theta"] > 0.0
