import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import relaxstab
from relaxstab import cli
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab.errors import CompatibilityError, ConfigError

THREAD_VARS = ("RELAXSTAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked through its API."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas*.so"))
    if not libs:
        pytest.skip("numpy is not linked against scipy-openblas")
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


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


def test_config_schema_is_valid():
    # RunConfig.from_dict validates configs against the schema without
    # checking the schema itself on every call
    from jsonschema import validators
    schema = cli.CONFIG_SCHEMA
    validators.validator_for(schema).check_schema(schema)


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


def test_singular_set_point_refutes_sweep(tmp_path):
    # lambda = 0 is the only grid point on the imaginary axis: it is flagged,
    # written to sweep.json, and makes the sweep fail instead of passing
    data = small_config()
    data["domain"] = {"length": 20.0, "n_nodes": 43}
    data["resolvent"]["grid"].update(re_lambda=0.0, n_im=1)
    cfg = cli.RunConfig.from_dict(data)
    code = cli.run(cfg, pipeline="resolvent-sweep",
                   out_dir=str(tmp_path / "o"))
    assert code == 4
    sweep = json.loads((tmp_path / "o" / "sweep.json").read_text())
    assert sweep["agreement"] == 1.0
    assert sweep["n_flagged"] == 1 and sweep["passed"] is False
    (entry,) = sweep["flagged"]
    assert entry["re_lambda"] == entry["im_lambda"] == 0.0
    assert entry["eta"] == []
    assert "singular set" in entry["message"]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["passed"] is False

    data["resolvent"]["grid"]["re_lambda"] = 0.5
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="resolvent-sweep",
                   out_dir=str(tmp_path / "ok")) == 0
    sweep = json.loads((tmp_path / "ok" / "sweep.json").read_text())
    assert sweep["flagged"] == [] and sweep["passed"] is True


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


def _run_python(args, env_update, cwd):
    """Run ``python *args`` in a fresh interpreter, with every thread
    variable removed from the environment and then ``env_update`` set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = os.path.dirname(os.path.dirname(relaxstab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(env_update)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


TRACED_RUN = """
import json, sys
perfbench, out = sys.argv[1:]
sys.path.insert(0, perfbench)
import relaxstab
import tracing, workloads
from relaxstab import cli
tracer = tracing.Tracer()
tracing.install(tracer)
with open(out + "/config.json", "w") as fh:
    json.dump(workloads.make_config("full_small", 0), fh)
result = {}
for pipeline in ("symmetrizer", "resolvent-sweep"):
    code = cli.main(["run", "--config", out + "/config.json",
                     "--pipeline", pipeline, "--out", out + "/" + pipeline])
    spans, _ = tracer.drain()
    result[pipeline] = {"code": code,
                        "names": sorted({s[1] for s in spans})}
print(json.dumps(result))
"""


def test_traced_run_records_G_at_spans(tmp_path):
    # the benchmark's tracer patches G_at and reads the field's _interp slot;
    # a traced run must still work, time the stacked G evaluations, and
    # record no dichotomy span in a sweep, which shares only the limit split
    perfbench = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench")
    proc = _run_python(["-c", TRACED_RUN, perfbench, str(tmp_path)], {},
                       tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    symm, sweep = result["symmetrizer"], result["resolvent-sweep"]
    assert symm["code"] == sweep["code"] == 0
    assert "resolvent.G_at_build" in symm["names"]
    assert "dichotomy.propagate_subspaces" in symm["names"]
    assert "resolvent.assemble_G" in sweep["names"]
    assert not [n for n in sweep["names"] if n.startswith("dichotomy.")]


# scipy packages that the certificate path does not need; the tests import
# some of them, so the check runs in a fresh interpreter
UNUSED_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
                "scipy.special")

PIPELINES_RUN = """
import json, sys
cfg, out = sys.argv[1:]
from relaxstab import cli, dichotomy, symmetrizer
codes = [cli.main(["run", "--config", cfg, "--pipeline", pipeline,
                   "--out", out + "/" + pipeline])
         for pipeline in ("full", "resolvent-sweep")]
print(json.dumps({
    "codes": codes,
    "loaded": sorted({".".join(m.split(".")[:2]) for m in sys.modules
                      if m.startswith("scipy.")}),
    "tracer_names": [hasattr(dichotomy, "solve_ivp"),
                     hasattr(symmetrizer, "solve_ivp")]}))
"""


def test_certificate_path_loads_only_numpy_and_scipy_linalg(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config()))
    proc = _run_python(["-c", PIPELINES_RUN, str(cfg_path), str(tmp_path)],
                       {}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert not set(UNUSED_SCIPY) & set(result["loaded"])
    # perfbench/tracing.py binds and wraps these names
    assert result["tracer_names"] == [True, True]


LAZY_PATHS_RUN = """
import json, sys
import numpy as np
from relaxstab import dichotomy, model, profile, systems
before = [m for m in %r if m in sys.modules]

jx = systems.jin_xin(2.0)
p = profile.solve_profile_shooting(jx, [1.0, 0.5], [0.0, 0.0], 0.5, L=40.0)
u = 1.0 / (1.0 + np.exp(p.grid / 7.5))
shoot_err = float(np.max(np.abs(p.values - np.column_stack([u, 0.5 * u]))))

reg = model.check_geometric_regularity(systems.jin_xin_2d(2.0),
                                       [0.3, 0.045, 0.045])

# A2(w) = [[0, 1], [u, 0]] degenerates where u = tanh(x - 1.2345) crosses 0
sys2 = systems.SystemSpec(
    n=2, d=2,
    flux_jac=lambda w: np.stack([np.eye(2), [[0.0, 1.0], [w[0], 0.0]]]),
    relax_jac=lambda w: np.zeros((2, 2)), equilibria=lambda w: True,
    relax=lambda w: np.zeros(2), name="synthetic")
grid = np.linspace(-10.0, 10.0, 201)
th = np.tanh(grid - 1.2345)
wave = profile.WaveProfile(
    grid=grid, values=np.column_stack([th, 0 * th]),
    derivs=np.column_stack([1 - th ** 2, 0 * th]), speed=0.0,
    endstates=(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
    decay_rate=2.0, tol_end=1e-8)
rep = dichotomy.detect_turning_points(sys2, wave, ray=[1.0, 0.3],
                                      x_grid=np.linspace(-8, 8, 161))
print(json.dumps({"before": before, "shoot_err": shoot_err,
                  "regular": bool(reg.passed),
                  "turning": list(rep.locations)}))
""" % (UNUSED_SCIPY,)


def test_lazy_scipy_paths_run_in_a_fresh_interpreter(tmp_path):
    # shooting, d >= 2 regularity and the turning-point scan import their
    # scipy solvers locally; the suite's own imports would hide a missing one
    proc = _run_python(["-c", LAZY_PATHS_RUN], {}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["before"] == []
    assert result["shoot_err"] <= 1e-8
    assert result["regular"]
    assert len(result["turning"]) == 1
    assert abs(result["turning"][0] - 1.2345) < 0.1


def test_bad_thread_count_is_usage_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config()))
    proc = _run_python(["-m", "relaxstab.cli", "run", "--config",
                        str(cfg_path), "--pipeline", "full",
                        "--out", str(tmp_path / "o")],
                       {"RELAXSTAB_THREADS": "abc"}, tmp_path)
    assert proc.returncode == 2
    assert "usage error" in proc.stderr and "RELAXSTAB_THREADS" in proc.stderr
    assert "Traceback" not in proc.stderr
    # rejected before the profile stage writes anything
    assert not (tmp_path / "o").exists()


def test_outputs_do_not_depend_on_thread_settings(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config()))
    for tag, env in (("default", {}),
                     ("single", {"RELAXSTAB_THREADS": "1",
                                 "OPENBLAS_NUM_THREADS": "1"})):
        proc = _run_python(["-m", "relaxstab.cli", "run", "--config",
                            str(cfg_path), "--pipeline", "resolvent-sweep",
                            "--out", str(tmp_path / tag)], env, tmp_path)
        assert proc.returncode == 0, proc.stderr
    for name in ("summary.json", "sweep.json", "sweep.csv"):
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "single" / name).read_bytes()), name


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(tmp_path, given, expected):
    blas_threads()      # skips where numpy has no scipy-openblas
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = _run_python(["-c", f"import sys; sys.path.insert(0, {tests!r}); "
                        "import relaxstab, test_cli; "
                        "print(test_cli.blas_threads())"], env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_suite_blas_threads_match_the_environment():
    # conftest imports relaxstab before numpy, so the suite's BLAS runs on
    # the thread count the CLI would use
    assert blas_threads() == int(os.environ["OPENBLAS_NUM_THREADS"])


def test_sweep_csv_writes_transverse_frequencies_as_numbers(tmp_path,
                                                            monkeypatch):
    # the Jin-Xin front with a third component is a jin_xin_2d profile
    base = prof.solve_profile_jinxin(2.0, 1.0, 0.0, n_points=401)

    def third(a):
        return np.column_stack([a, a[:, 1]])

    front = prof.WaveProfile(
        grid=base.grid, values=third(base.values), derivs=third(base.derivs),
        speed=base.speed, endstates=tuple(np.append(e, e[1])
                                          for e in base.endstates),
        decay_rate=base.decay_rate, tol_end=base.tol_end)
    monkeypatch.setattr(cli._Runner, "get_profile", lambda self: front)
    monkeypatch.setattr(
        cli._Runner, "_frequency_grid",
        lambda self: [res.FrequencyPoint(np.array([0.6]), complex(0.5, t))
                      for t in (0.0, 2.0, 4.0)])
    data = small_config()
    data["system"] = {"name": "jin_xin_2d", "params": {"a": 2.0}}
    data["domain"] = {"length": 20.0, "n_nodes": 43}
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="resolvent-sweep",
                   out_dir=str(tmp_path / "o")) == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    col = lines[0].split(",").index("eta")
    assert [line.split(",")[col] for line in lines[1:]] == ["0.6"] * 3


def test_verbose_reports_every_stage_and_keeps_summary(tmp_path, capsys):
    data = small_config()
    data["domain"] = {"length": 20.0, "n_nodes": 43}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    stages = {}
    for tag, extra in (("quiet", []), ("verbose", ["--verbose"])):
        assert cli.main(["run", "--config", str(cfg_path), "--pipeline",
                         "full", "--out", str(tmp_path / tag), *extra]) == 0
        stages[tag] = [line.split(":")[0]
                       for line in capsys.readouterr().err.splitlines()
                       if line.endswith((" s, passed", " s, failed"))]
    assert ((tmp_path / "quiet" / "summary.json").read_bytes()
            == (tmp_path / "verbose" / "summary.json").read_bytes())
    assert stages["quiet"] == []
    assert stages["verbose"] == ["profile", "hypotheses", "resolvent-sweep",
                                 "dichotomy", "symmetrizer", "simulate"]


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
