import collections
import ctypes
import dataclasses
import glob
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import relaxstab
from relaxstab import cli
from relaxstab import dichotomy as dich
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab import systems
from relaxstab.errors import CompatibilityError, ConfigError

THREAD_VARS = ("RELAXSTAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_threads(package, symbol):
    """Threads of the scipy-openblas that ``package`` bundles, asked through
    its API; skips where the package has none."""
    root = importlib.util.find_spec(package).submodule_search_locations[0]
    libs = glob.glob(os.path.join(root + ".libs", "libscipy_openblas*.so"))
    if not libs:
        pytest.skip(f"{package} is not linked against scipy-openblas")
    get = getattr(ctypes.CDLL(libs[0]), symbol)
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, which also runs every
    LAPACK call of the package."""
    return _openblas_threads("numpy", "scipy_openblas_get_num_threads64_")


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


def saint_venant_config():
    h1 = 1.2
    return {
        "schema_version": 1, "seed": 3,
        "system": {"name": "saint_venant", "params": {"froude": 1.5}},
        "profile": {"endstates": [[h1, h1 ** 1.5], [1.0, 1.0]],
                    "speed": (h1 ** 1.5 - 1.0) / (h1 - 1.0), "L": 30.0,
                    "n_points": 801},
        "hypotheses": {"eta_min": 10.0, "theta_req": 0.0},
    }


def _run_argv(edit, config=small_config):
    """argv of ``relaxstab run`` on ``config()`` after ``edit``."""
    def argv(tmp_path):
        cfg = config()
        edit(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return ["run", "--config", str(path), "--out", str(tmp_path / "o")]
    return argv


def _report_argv(name, text=None):
    """argv of ``relaxstab report`` on a file holding ``text`` (or none)."""
    def argv(tmp_path):
        if text is not None:
            (tmp_path / name).write_text(text)
        return ["report", str(tmp_path / name)]
    return argv


BAD_INPUTS = {
    "string-trials": (_run_argv(lambda c: c["resolvent"].update(trials="6")),
                      "resolvent.trials"),
    "string-pairs": (_run_argv(lambda c: c["dichotomy"].update(pairs="8")),
                     "dichotomy.pairs"),
    "misspelt-key": (_run_argv(lambda c: c["dichotomy"].update(pairz=8)),
                     "dichotomy.pairz"),
    "retired-threads-key": (
        _run_argv(lambda c: c["resolvent"].update(threads=2)),
        "resolvent.threads"),
    # keys that every config left at one value, now constants
    "retired-tol-end-key": (
        _run_argv(lambda c: c["profile"].update(tol_end=1e-8)),
        "profile.tol_end"),
    "retired-dichotomy-tol-key": (
        _run_argv(lambda c: c["dichotomy"].update(tol=1e-6)),
        "dichotomy.tol"),
    "retired-sample-every-key": (
        _run_argv(lambda c: c["simulation"].update(sample_every=5)),
        "simulation.sample_every"),
    "retired-theta-key": (
        _run_argv(lambda c: c["simulation"].update(theta=0.3)),
        "simulation.theta"),
    "negative-length": (_run_argv(lambda c: c["domain"].update(length=-20)),
                        "domain.length"),
    "bool-for-number": (_run_argv(lambda c: c["norms"].update(alpha=True)),
                        "norms.alpha"),
    "count-below-bound": (_run_argv(lambda c: c["domain"].update(n_nodes=4)),
                          "domain.n_nodes"),
    "endstate-of-wrong-size": (
        _run_argv(lambda c: c["profile"]["endstates"][0].append(0.0),
                  saint_venant_config), "profile.endstates"),
    "shooting-without-speed": (
        _run_argv(lambda c: c["profile"].pop("speed"), saint_venant_config),
        "profile.speed"),
    "unknown-system-param": (
        _run_argv(lambda c: c["system"].update(params={"b": 1})), "'b'"),
    "gamma-star-above-grid": (
        _run_argv(lambda c: c["resolvent"].update(gamma_star=1.0)),
        "resolvent.gamma_star"),
    "re-lambda-below-floor": (
        _run_argv(lambda c: c["resolvent"]["grid"].update(re_lambda=-20)),
        "resolvent.grid.re_lambda"),
    "zero-eta-min": (
        _run_argv(lambda c: c["hypotheses"].update(eta_min=0)),
        "hypotheses.eta_min"),
    "negative-eta-min": (
        _run_argv(lambda c: c["hypotheses"].update(eta_min=-10.0)),
        "hypotheses.eta_min"),
    "three-part-lambda": (
        _run_argv(lambda c: c["dichotomy"].update({"lambda": [1, 2, 3]})),
        "dichotomy.lambda"),
    "dichotomy-lambda-below-floor": (
        _run_argv(lambda c: c["dichotomy"].update({"lambda": [-20.0, 0.0]})),
        "dichotomy.lambda"),
    "report-missing-file": (_report_argv("missing.json"), "missing.json"),
    "report-not-json": (_report_argv("broken.json", "{"), "broken.json"),
    "report-results-not-an-object": (
        _report_argv("list.json", '{"schema_version": 1, "results": [1]}'),
        "list.json"),
    "report-result-not-an-object": (
        _report_argv("scalar.json", '{"results": {"sweep": 3}}'),
        "scalar.json"),
}


@pytest.mark.parametrize("argv, where", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_is_usage_error_naming_the_key(tmp_path, capsys, argv,
                                                 where):
    assert cli.main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and where in err


def test_spelled_out_defaults_give_the_minimal_results(tmp_path):
    # a stage that fell back on a default of its own would tell them apart
    minimal = {"schema_version": 1, "system": {"name": "jin_xin"},
               "profile": {"endstates": [[1.0, 0.5], [0.0, 0.0]]}}
    spelled = json.loads(json.dumps(minimal))
    for path, (_, default, *_) in cli.OPTIONS.items():
        if default is not cli.REQUIRED:
            *sections, key = path.split(".")
            node = spelled
            for name in sections:
                node = node.setdefault(name, {})
            node[key] = list(default) if isinstance(default, tuple) \
                else default
    results = []
    for tag, data in (("minimal", minimal), ("spelled", spelled)):
        cfg = cli.RunConfig.from_dict(data)
        assert cli.run(cfg, pipeline="full", out_dir=str(tmp_path / tag)) == 0
        summary = json.loads((tmp_path / tag / "summary.json").read_text())
        assert summary["config"] == data
        results.append(summary["results"])
    assert results[0] == results[1]


def test_bad_relax_in_shooting_profile_is_numeric_failure(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    # a wrongly shaped r(w) is a typed failure (exit 3), not a traceback
    monkeypatch.setitem(
        systems.SYSTEM_REGISTRY, "saint_venant",
        lambda froude=1.5: dataclasses.replace(
            systems.saint_venant(froude), relax=lambda w: np.zeros(3)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(saint_venant_config()))
    code = cli.main(["run", "--config", str(path), "--pipeline", "profile",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "relax returned shape (3,)" in err and "Traceback" not in err


def test_full_run_calls_each_evaluator_a_few_dozen_times(tmp_path,
                                                         monkeypatch):
    # every stage evaluates whole stacks of states: a loop over single
    # states would call the evaluators thousands of times
    calls = collections.Counter()

    def counted(name, evaluator):
        def wrapper(w):
            calls[name] += 1
            return evaluator(w)
        return wrapper

    def factory(a=2.0):
        jx = systems.jin_xin(a)
        return dataclasses.replace(jx, **{
            name: counted(name, getattr(jx, name))
            for name in ("flux_jac", "relax_jac", "relax")})

    monkeypatch.setitem(systems.SYSTEM_REGISTRY, "jin_xin_counted", factory)
    cfg = small_config()
    cfg["system"]["name"] = "jin_xin_counted"
    code = cli.run(cli.RunConfig.from_dict(cfg), pipeline="full",
                   out_dir=str(tmp_path / "o"))
    assert code == 0
    assert calls["flux_jac"] > 0 and calls["relax_jac"] > 0
    assert max(calls.values()) <= 40, dict(calls)


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


def test_sweep_with_every_point_flagged_exits_3(tmp_path, monkeypatch,
                                                capsys):
    # lambda = 0 is on the singular set: with nothing else on the grid the
    # sweep has no point to fit its constants on
    monkeypatch.setattr(
        cli._Runner, "_frequency_grid",
        lambda self: [res.FrequencyPoint(np.zeros(0), 0.0)] * 3)
    data = small_config()
    data["domain"] = {"length": 20.0, "n_nodes": 43}
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="resolvent-sweep",
                   out_dir=str(tmp_path / "o")) == 3
    assert "no grid point of 3 is off the singular set" in \
        capsys.readouterr().err


def test_full_run_builds_the_wave_coefficients_once(tmp_path, monkeypatch):
    # the sweep and the dichotomy share the run's grid, and with it the wave
    # coefficients memoized on it: the flux Jacobians at the grid's nodes
    # (the states and the two flux-Hessian differences) are evaluated once
    flux_jacs = systems.SystemSpec.flux_jacs
    sizes = []

    def counted(self, w):
        sizes.append(len(w))
        return flux_jacs(self, w)

    monkeypatch.setattr(systems.SystemSpec, "flux_jacs", counted)
    data = small_config()
    data["domain"] = {"length": 20.0, "n_nodes": 43}
    assert cli.run(cli.RunConfig.from_dict(data), pipeline="full",
                   out_dir=str(tmp_path / "o")) == 0
    assert sizes.count(43) == 3


def test_numeric_failure_exit_code(tmp_path):
    # lambda = 0 sits on the essential-spectrum boundary: center spectrum
    data = small_config()
    data["dichotomy"]["lambda"] = [0.0, 0.0]
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="dichotomy", out_dir=str(tmp_path / "o")) == 3


def test_dichotomy_in_another_component_of_the_resolvent_set(tmp_path,
                                                             capsys):
    # at lambda = -0.9 the limit splits of the front have ranks (0, 2): their
    # count is n, but they are not the (1, 1) of large real lambda, so the
    # stage names both pairs instead of failing inside the propagators
    data = small_config()
    data["dichotomy"]["lambda"] = [-0.9, 0.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code = cli.main(["run", "--config", str(path), "--pipeline", "dichotomy",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "(0, 2)" in err and "(1, 1)" in err and "Traceback" not in err


def test_dichotomy_verifier_draws_pairs_of_its_own(tmp_path, monkeypatch):
    # with the fit's pairs the verifier's decay check could not fail: every
    # pair it checked would lie under the fitted bound by construction
    drawn = []
    pair_lognorms = dich._pair_lognorms

    def record(data, field, n_pairs, seed):
        out = pair_lognorms(data, field, n_pairs, seed)
        drawn.append(out[:2])
        return out

    monkeypatch.setattr(dich, "_pair_lognorms", record)
    data = small_config()
    data["domain"] = {"length": 20.0, "n_nodes": 43}
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="dichotomy", out_dir=str(tmp_path / "o")) == 0
    (fit_iy, fit_ix), (iy, ix) = drawn
    assert len(fit_iy) > len(iy) == 8
    assert not (np.array_equal(iy, fit_iy[:8])
                and np.array_equal(ix, fit_ix[:8]))


@pytest.mark.parametrize("mode", ["linearized", "nonlinear"])
def test_retired_simulation_mode_is_usage_error(tmp_path, capsys, mode):
    # the simulation is linearized only; a config naming the old key, with
    # either of its values, is told so before any stage runs
    argv = _run_argv(lambda c: c["simulation"].update(mode=mode))(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "simulation.mode" in err
    assert "Traceback" not in err


def test_sobolev_order_beyond_the_energies_is_usage_error(tmp_path, capsys):
    # the sweep takes any s, the simulation's discrete energies s <= 3: the
    # simulate stage says so before it runs, not with a traceback
    argv = _run_argv(lambda c: c["norms"].update(s=4))(tmp_path)
    assert cli.main(argv + ["--pipeline", "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "norms.s" in err
    assert "Traceback" not in err


# values that a later stage rejects, found before the first stage writes a
# file: (config edit, pipeline, the key the message names)
EARLY_REJECTS = {
    "sobolev-order-in-full": (lambda c: c["norms"].update(s=4), "full",
                              "norms.s"),
    "dichotomy-lambda-in-full": (
        lambda c: c["dichotomy"].update({"lambda": [-20.0, 0.0]}), "full",
        "dichotomy.lambda"),
    "dichotomy-lambda-in-symmetrizer": (
        lambda c: c["dichotomy"].update({"lambda": [-20.0, 0.0]}),
        "symmetrizer", "dichotomy.lambda"),
    "re-lambda-in-full": (
        lambda c: c["resolvent"]["grid"].update(re_lambda=-20), "full",
        "resolvent.grid.re_lambda"),
    "gamma-star-in-full": (
        lambda c: c["resolvent"].update(gamma_star=1.0), "full",
        "resolvent.gamma_star"),
    "unknown-pipeline": (lambda c: None, "bogus", "unknown pipeline 'bogus'"),
}


@pytest.mark.parametrize("edit, pipeline, where", EARLY_REJECTS.values(),
                         ids=EARLY_REJECTS)
def test_config_error_is_found_before_any_file_is_written(
        tmp_path, capsys, edit, pipeline, where):
    argv = _run_argv(edit)(tmp_path)
    assert cli.main(argv + ["--pipeline", pipeline]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and where in err
    assert not (tmp_path / "o").exists()


def test_pipeline_takes_values_that_only_skipped_stages_reject(tmp_path):
    def edit(c):
        c["norms"].update(s=4)
        c["dichotomy"].update({"lambda": [-20.0, 0.0]})
        c["resolvent"]["grid"].update(re_lambda=-20)

    argv = _run_argv(edit)(tmp_path)
    assert cli.main(argv + ["--pipeline", "profile"]) == 0
    assert (tmp_path / "o" / "summary.json").exists()


def test_zero_amplitude_simulation_is_typed_failure(tmp_path, capsys):
    # a zero perturbation has zero energy at every sample: no damping to
    # certify, so exit code 3 and one message line, not a passing verdict
    data = small_config()
    data["simulation"]["amplitude"] = 0
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="simulate", out_dir=str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure in simulate: energy is zero")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o" / "simulate.json").exists()


def test_short_simulation_is_typed_failure(tmp_path, capsys):
    # a run too short to difference its energy trace ends with exit code 3
    # and one message line, not a traceback
    data = saint_venant_config()
    data["simulation"] = {"t_final": 2.0, "n_points": 101, "L_sim": 20.0,
                          "tau_c": 50.0}
    cfg = cli.RunConfig.from_dict(data)
    assert cli.run(cfg, pipeline="simulate", out_dir=str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure in simulate: trace too short")
    assert len(err.splitlines()) == 1


def test_worker_count_env_override(monkeypatch):
    from relaxstab.resolvent import worker_count
    monkeypatch.setenv("RELAXSTAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("RELAXSTAB_THREADS")
    assert worker_count() == min(8, os.cpu_count() or 1)


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
perfbench, out, small = sys.argv[1:]
sys.path.insert(0, perfbench)
import relaxstab
import tracing, workloads
from relaxstab import cli
tracer = tracing.Tracer()
tracing.install(tracer)
with open(out + "/config.json", "w") as fh:
    json.dump(workloads.make_config("full_small", 0), fh)
result = {}
for pipeline, cfg in (("symmetrizer", out + "/config.json"),
                      ("resolvent-sweep", out + "/config.json"),
                      ("full", small)):
    code = cli.main(["run", "--config", cfg, "--pipeline", pipeline,
                     "--out", out + "/" + pipeline])
    spans, counts = tracer.drain()
    result[pipeline] = {"code": code, "counts": counts,
                        "names": sorted({s[1] for s in spans})}
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Span names and counters of CLI runs under the benchmark's tracer,
    which ``perfbench/tracing.py`` installs from outside the package."""
    tmp = tmp_path_factory.mktemp("traced")
    small = tmp / "small_config.json"
    small.write_text(json.dumps(small_config()))
    perfbench = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench")
    proc = _run_python(["-c", TRACED_RUN, perfbench, str(tmp), str(small)],
                       {}, tmp)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_records_G_at_spans(traced_runs):
    # the benchmark's tracer patches G_at and reads the field's _interp slot;
    # a traced run must still work, time the stacked G evaluations, and
    # record no dichotomy span in a sweep, which shares only the limit split
    symm, sweep = traced_runs["symmetrizer"], traced_runs["resolvent-sweep"]
    assert symm["code"] == sweep["code"] == 0
    assert "resolvent.G_at_build" in symm["names"]
    assert "dichotomy.propagate_subspaces" in symm["names"]
    assert "resolvent.assemble_G" in sweep["names"]
    assert not [n for n in sweep["names"] if n.startswith("dichotomy.")]


def test_traced_full_run_reaches_the_tracer_patch_points(traced_runs):
    # the tracer wraps package names by attribute (each module's __all__,
    # the scipy bindings of resolvent, SystemSpec.flux_jacs); a renamed one
    # fails the install or silently loses its spans and counts
    full = traced_runs["full"]
    assert full["code"] == 0
    for name in ("timedomain.step", "resolvent.lu_factor",
                 "dichotomy.propagate_subspaces"):
        assert name in full["names"], name
    assert full["counts"]["model.flux_jacs_calls"] > 0


# scipy packages that only the lazy paths load; the tests import some of
# them, so the check runs in a fresh interpreter
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
    "scipy_modules": sorted(m for m in sys.modules if m.startswith("scipy")),
    "tracer_names": [hasattr(dichotomy, "solve_ivp"),
                     hasattr(symmetrizer, "solve_ivp")],
    "jsonschema": "jsonschema" in sys.modules,
    "numpy_ma": "numpy.ma" in sys.modules,
    "concurrent_futures": "concurrent.futures" in sys.modules}))
"""


def test_certificate_path_loads_only_numpy_and_scipy_linalg(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config()))
    proc = _run_python(["-c", PIPELINES_RUN, str(cfg_path), str(tmp_path)],
                       {}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    # no part of scipy: LAPACK comes from numpy's OpenBLAS
    # (relaxstab._lapack)
    assert result["scipy_modules"] == []
    # perfbench/tracing.py binds and wraps these names
    assert result["tracer_names"] == [True, True]
    assert result["jsonschema"] is False
    # np.unique imports numpy.ma (13 ms, 1.3 MiB) on its first call
    assert result["numpy_ma"] is False
    # the sweep runs its chunks on plain threads, with no executor
    assert result["concurrent_futures"] is False


LAZY_PATHS_RUN = """
import json, sys
import numpy as np
from relaxstab import dichotomy, model, profile, systems
before = [m for m in %r if m in sys.modules]

jx = systems.jin_xin(2.0)
p = profile.solve_profile_shooting(jx, [1.0, 0.5], [0.0, 0.0], 0.5, L=40.0)
# shooting imported the scipy.linalg package, which loaded its own modules
import scipy.linalg
complete = hasattr(scipy.linalg, "_flapack")
u = 1.0 / (1.0 + np.exp(p.grid / 7.5))
shoot_err = float(np.max(np.abs(p.values - np.column_stack([u, 0.5 * u]))))

reg = model.check_geometric_regularity(systems.jin_xin_2d(2.0),
                                       [0.3, 0.045, 0.045])

# A2(w) = [[0, 1], [u, 0]] degenerates where u = tanh(x - 1.2345) crosses 0
sys2 = systems.SystemSpec(
    n=2, d=2,
    flux_jac=model.per_state(
        lambda w: np.stack([np.eye(2), [[0.0, 1.0], [w[0], 0.0]]])),
    relax_jac=model.per_state(lambda w: np.zeros((2, 2))),
    relax=model.per_state(lambda w: np.zeros(2)), name="synthetic")
grid = np.linspace(-10.0, 10.0, 201)
th = np.tanh(grid - 1.2345)
wave = profile.WaveProfile(
    grid=grid, values=np.column_stack([th, 0 * th]),
    derivs=np.column_stack([1 - th ** 2, 0 * th]), speed=0.0,
    endstates=(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
    decay_rate=2.0, tol_end=1e-8)
rep = dichotomy.detect_turning_points(sys2, wave, ray=[1.0, 0.3],
                                      x_grid=np.linspace(-8, 8, 161))
print(json.dumps({"before": before, "complete": complete,
                  "shoot_err": shoot_err,
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
    assert result["complete"]
    assert result["shoot_err"] <= 1e-8
    assert result["regular"]
    assert len(result["turning"]) == 1
    assert abs(result["turning"][0] - 1.2345) < 0.1


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_bad_thread_count_is_usage_error(tmp_path, threads):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_config()))
    proc = _run_python(["-m", "relaxstab.cli", "run", "--config",
                        str(cfg_path), "--pipeline", "full",
                        "--out", str(tmp_path / "o")],
                       {"RELAXSTAB_THREADS": threads}, tmp_path)
    assert proc.returncode == 2
    assert "usage error" in proc.stderr and "RELAXSTAB_THREADS" in proc.stderr
    assert "must be a positive integer" in proc.stderr
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
    # skips where numpy's BLAS is not a scipy-openblas
    blas_threads()
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = _run_python(["-c", f"import sys; sys.path.insert(0, {tests!r}); "
                        "import relaxstab, test_cli; "
                        "print(test_cli.blas_threads())"], env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected]


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
    cfg = cli.RunConfig.from_dict(saint_venant_config())
    code = cli.run(cfg, pipeline="hypotheses", out_dir=str(tmp_path / "sv"))
    assert code == 0
    rep = json.loads((tmp_path / "sv" / "hypotheses.json").read_text())
    assert rep["passed"] is True and rep["chf_theta"] > 0.0
