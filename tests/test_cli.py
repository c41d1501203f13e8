"""Run-spec parsing, canonical serialization, and end-to-end CLI runs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spinmodels import (
    SolverError,
    SpecFileError,
    chain_volume,
    cli,
    invariance_residual,
    lr_scan,
    spin_algebra,
    spectra,
    spin_matrices,
    states,
    xxz_suq2,
)
from spinmodels.cli import (
    canonical_json,
    main,
    parse_spec_dict,
    parse_spec_file,
    run_spec,
    write_csv,
)


RUNSPECS = Path(__file__).resolve().parent.parent / "runspecs"

# the smallest valid section of each task, one per Task record (scan needs
# values or grid too)
_REQUIRED_KEYS = {
    "spectrum": {},
    "thermal": {"betas": [0.5]},
    "dynamics": {"times": [0.5], "distances": [1]},
    "verify": {},
    "scan": {"variable": "J", "values": [0.5]},
}
_FREE_J = {"name": "heisenberg", "params": {}}  # leaves J free for a scan


def _spec(task, section, *, model=None, volume=None, seed=None, output=None):
    doc = {
        "schema_version": 1,
        "task": task,
        "model": model or {"name": "heisenberg", "params": {"J": -1.0}},
        "volume": volume or {"dims": [4], "boundary": "periodic"},
        task: section,
    }
    if seed is not None:
        doc["seed"] = seed
    if output is not None:
        doc["output"] = output
    return doc


class TestParsing:
    def test_minimal_spectrum_spec(self):
        spec = parse_spec_dict(_spec("spectrum", {}))
        assert spec.task == "spectrum"
        assert spec.params == {"method": "auto", "num_eigenvalues": 6}
        assert spec.model_name == "heisenberg"
        assert spec.boundary == "periodic"

    def test_unknown_keys_rejected_everywhere(self):
        for task in cli.TASKS:
            section = _REQUIRED_KEYS[task]
            parse_spec_dict(_spec(task, section, model=_FREE_J, seed=0))  # valid as it is
            doc = _spec(task, section, model=_FREE_J, seed=0)
            doc["extra"] = 1
            with pytest.raises(SpecFileError):
                parse_spec_dict(doc)
            doc = _spec(task, dict(section, bogus=True), model=_FREE_J, seed=0)
            with pytest.raises(SpecFileError):
                parse_spec_dict(doc)
            doc = _spec(task, section, model=dict(_FREE_J, junk=0), seed=0)
            with pytest.raises(SpecFileError):
                parse_spec_dict(doc)

    @pytest.mark.parametrize("task", list(cli.TASKS))
    def test_required_keys_normalize_to_declared_defaults(self, task):
        # every key left out takes the default its Task record declares; a
        # required key declares None, and the optional scan values/grid pair
        # collapses to values
        required = _REQUIRED_KEYS[task]
        defaults = {k: d for k, (d, _) in cli.TASKS[task].keys.items() if d is not None}
        spec = parse_spec_dict(_spec(task, dict(required), model=_FREE_J, seed=0))
        assert spec.params == {**defaults, **required}

    def test_bad_task_and_schema(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("explode", {}))
        doc = _spec("spectrum", {})
        doc["schema_version"] = 99
        with pytest.raises(SpecFileError):
            parse_spec_dict(doc)

    def test_volume_validation(self):
        doc = _spec("spectrum", {}, volume={"dims": [], "boundary": "open"})
        with pytest.raises(SpecFileError):
            parse_spec_dict(doc)
        doc = _spec("spectrum", {}, volume={"dims": [4], "boundary": "twisted"})
        with pytest.raises(SpecFileError):
            parse_spec_dict(doc)
        doc = _spec("spectrum", {}, volume={"dims": [2.5], "boundary": "open"})
        with pytest.raises(SpecFileError):
            parse_spec_dict(doc)

    def test_model_params_validated_at_parse_time(self):
        doc = _spec("spectrum", {},
                    model={"name": "xxz_suq2", "params": {"q": 2.0}},
                    volume={"dims": [4], "boundary": "open"})
        with pytest.raises(SpecFileError):
            parse_spec_dict(doc)
        doc = _spec("spectrum", {}, model={"name": "heisenberg",
                                           "params": {"J": 1.0, "zeta": 0}})
        with pytest.raises(SpecFileError):
            parse_spec_dict(doc)

    def test_thermal_betas(self):
        spec = parse_spec_dict(_spec("thermal", {"betas": [0, 0.5, 2]}))
        assert spec.params["betas"] == [0.0, 0.5, 2.0]
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("thermal", {"betas": []}))
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("thermal", {"betas": [-0.5]}))

    def test_dynamics_section(self, tmp_path):
        sec = {"times": [0, 0.5], "distances": [1, 2], "observable": "s1"}
        spec = parse_spec_dict(_spec("dynamics", sec))
        assert spec.params["observable"] == "s1"
        sec = {"times": [0.5], "distances": [1.5]}
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("dynamics", sec))
        # the deformed chain is an ordinary bond term: its light cone is the
        # lr_scan of xxz_suq2(q) on the open chain
        sec = {"times": [0.0, 0.5, 1.0], "distances": [1, 2, 3]}
        doc = _spec("dynamics", sec, model={"name": "xxz_suq2", "params": {"q": 0.5}},
                    volume={"dims": [5], "boundary": "open"})
        payload = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]
        s3 = spin_matrices(0.5).s3
        ref = lr_scan(xxz_suq2(0.5), chain_volume(5, "open"), s3, s3,
                      sec["times"], sec["distances"])
        assert payload["norms"] == ref.norms.tolist()
        assert payload["bound"] == ref.bound

    def test_verify_requires_seed_for_randomized_checks(self):
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("verify", {"checks": ["kms"]}))
        spec = parse_spec_dict(_spec("verify", {"checks": ["kms"]}, seed=3))
        assert spec.seed == 3
        # deterministic checks need no seed
        spec = parse_spec_dict(_spec("verify", {"checks": ["algebra", "symmetry"]}))
        assert spec.params["checks"] == ["algebra", "symmetry"]

    def test_scan_values_xor_grid(self):
        sec = {"variable": "J", "values": [0.5, 1.0]}
        spec = parse_spec_dict(_spec("scan", sec,
                                     model={"name": "heisenberg", "params": {}}))
        assert spec.params["values"] == [0.5, 1.0]
        sec = {"variable": "J", "values": [1.0],
               "grid": {"start": 0, "stop": 1, "num": 3}}
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("scan", sec,
                                  model={"name": "heisenberg", "params": {}}))
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("scan", {"variable": "J"},
                                  model={"name": "heisenberg", "params": {}}))

    def test_scan_variable_must_match_model(self):
        sec = {"variable": "h", "values": [0.5]}
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("scan", sec,
                                  model={"name": "heisenberg", "params": {}}))
        # fixing the swept variable in model.params is contradictory
        sec = {"variable": "J", "values": [0.5]}
        with pytest.raises(SpecFileError):
            parse_spec_dict(_spec("scan", sec,
                                  model={"name": "heisenberg",
                                         "params": {"J": 1.0}}))

    def test_scan_values_validated_against_model_domain(self):
        sec = {"variable": "q", "values": [0.5, 1.5]}  # 1.5 outside (0, 1]
        doc = _spec("scan", sec, model={"name": "xxz_suq2", "params": {}},
                    volume={"dims": [4], "boundary": "open"})
        with pytest.raises(SpecFileError):
            parse_spec_dict(doc)

    def test_roundtrip_through_to_dict(self):
        doc = _spec("thermal", {"betas": [1.0]}, seed=5,
                    output={"json": "r.json"})
        spec = parse_spec_dict(doc)
        again = parse_spec_dict(spec.to_dict())
        assert again == spec


def test_canonical_json_is_sorted_and_stable():
    obj = {"b": 1, "a": [1.5, 2], "c": {"y": True, "x": None}}
    text = canonical_json(obj)
    assert text == '{"a":[1.5,2],"b":1,"c":{"x":null,"y":true}}'
    # '.17g' float text: it round-trips, but is not always the shortest that does
    assert canonical_json(0.1) == "0.10000000000000001"
    assert json.loads(canonical_json(1.0 / 3.0)) == 1.0 / 3.0


def test_canonical_json_coerces_numpy():
    obj = {"v": np.float64(2.5), "n": np.int32(3), "arr": np.arange(3.0),
           "flag": np.bool_(True)}
    text = canonical_json(obj)
    assert text == '{"arr":[0,1,2],"flag":true,"n":3,"v":2.5}'


def test_canonical_json_bytes_of_numpy_values_tuples_and_int_keys():
    # numpy values are written as the Python values they hold
    assert canonical_json(np.array([[0.5, 1.0], [-2.25, 0.1]])) == \
        "[[0.5,1],[-2.25,0.10000000000000001]]"
    assert canonical_json(np.int64(-7)) == "-7"
    assert canonical_json(np.float32(0.1)) == "0.10000000149011612"
    assert canonical_json(np.bool_(False)) == "false"
    assert canonical_json((1, "a", None, (2.5,))) == '[1,"a",null,[2.5]]'
    # keys are written as strings and sorted as strings
    assert canonical_json({10: "x", 2: np.arange(2), "1": {}}) == \
        '{"1":{},"10":"x","2":[0,1]}'


def test_canonical_json_rejects_non_finite():
    with pytest.raises(SolverError):
        canonical_json({"x": math.nan})
    with pytest.raises(SolverError):
        canonical_json({"x": math.inf})
    with pytest.raises(SolverError):
        canonical_json({"x": object()})


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(1, 0.5, True), (2, 1.0 / 3.0, False)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,true"
    assert lines[2].startswith("2,0.3333333333333333")


def test_write_csv_cells_reuse_the_json_encoder(tmp_path):
    # strings as they are, every other cell as its canonical JSON
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f"],
              [(np.int64(3), np.float64(0.1), True, "kms", np.bool_(False), np.float32(0.5))])
    assert path.read_bytes() == b"a,b,c,d,e,f\n3,0.10000000000000001,true,kms,false,0.5\n"


def test_run_spectrum_end_to_end(tmp_path):
    spec = parse_spec_dict(_spec("spectrum", {"num_eigenvalues": 4},
                                 output={"json": "out.json", "csv": "out.csv"}))
    path = run_spec(spec, tmp_path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["task"] == "spectrum"
    assert doc["spec"] == spec.to_dict()
    evs = doc["payload"]["eigenvalues"]
    assert evs == sorted(evs)
    assert abs(doc["payload"]["ground_energy"] - (-2.0)) < 1e-10  # L=4 AFM ring
    assert doc["payload"]["degeneracy"] == 1
    assert (tmp_path / "out.csv").exists()
    prov = doc["provenance"]
    assert prov["caps"]["dense"] == 4096
    assert prov["tolerances"]["solver"] == 1e-10


def test_dense_spectrum_payload_lists_invariant_blocks(tmp_path):
    # 4-site ring: one block per total-S3 sector, ordered by first basis index,
    # and the ring is exactly flip-symmetric
    doc = json.loads(run_spec(parse_spec_dict(_spec("spectrum", {"method": "dense"})),
                              tmp_path).read_text())
    assert doc["payload"]["block_sizes"] == [1, 4, 6, 4, 1]
    assert doc["payload"]["flip"] is True
    assert not {"iterations", "max_residual", "solved_blocks"} & set(doc["payload"])
    # a longitudinal field breaks the flip; the sectors stay
    field = {"name": "xy_field", "params": {"h": 0.3}}
    doc = json.loads(run_spec(parse_spec_dict(_spec("spectrum", {"method": "dense"},
                                                    model=field)), tmp_path).read_text())
    assert doc["payload"]["block_sizes"] == [1, 4, 6, 4, 1]
    assert doc["payload"]["flip"] is False
    doc = json.loads(run_spec(parse_spec_dict(_spec("spectrum", {"method": "krylov"})),
                              tmp_path).read_text())
    assert "block_sizes" not in doc["payload"] and "flip" not in doc["payload"]


def test_krylov_spectrum_payload_records_solver_diagnostics(tmp_path):
    # the sizes of the blocks that got a Lanczos run, in solve order, the
    # steps of all runs and their largest residual, and a rerun writes the
    # same bytes
    spec = parse_spec_dict(_spec("spectrum", {"method": "krylov", "num_eigenvalues": 4},
                                 volume={"dims": [8], "boundary": "periodic"}))
    text = run_spec(spec, tmp_path / "a").read_text()
    payload = json.loads(text)["payload"]
    assert payload["method"] == "krylov"
    assert payload["solved_blocks"] and set(payload["solved_blocks"]) <= {8, 28, 56, 70}
    assert isinstance(payload["iterations"], int)
    assert payload["iterations"] >= len(payload["solved_blocks"])
    scale = max(abs(v) for v in payload["eigenvalues"])
    assert 0.0 <= payload["max_residual"] <= 1e-10 * scale
    assert run_spec(spec, tmp_path / "b").read_text() == text


def test_run_thermal_consistency(tmp_path):
    spec = parse_spec_dict(_spec("thermal", {"betas": [0.0, 0.5, 1.0, 2.0]}))
    doc = json.loads(run_spec(spec, tmp_path).read_text())
    pts = doc["payload"]["points"]
    # beta=0: log Z = log dim, energy = average of the spectrum = 0 traceless
    assert abs(pts[0]["log_z"] - math.log(16)) < 1e-12
    assert abs(pts[0]["energy"]) < 1e-12
    energies = [p["energy"] for p in pts]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_run_verify_all_checks(tmp_path):
    doc_in = _spec("verify", {"betas": [0.5], "num_probes": 5}, seed=9)
    spec = parse_spec_dict(doc_in)
    doc = json.loads(run_spec(spec, tmp_path).read_text())
    checks = doc["payload"]["checks"]
    assert set(checks) == {"algebra", "symmetry", "kms", "eeb", "stability"}
    assert doc["payload"]["all_ok"] is True
    for name, res in checks.items():
        assert res["ok"] is True, name


def test_run_scan_with_workers(tmp_path):
    sec = {"variable": "h", "grid": {"start": 0.0, "stop": 1.0, "num": 4}}
    doc_in = _spec("scan", sec, model={"name": "ising", "params": {"J": 1.0}},
                   volume={"dims": [4], "boundary": "open"})
    spec = parse_spec_dict(doc_in)
    one = json.loads(run_spec(spec, tmp_path / "w1", workers=1).read_text())
    four = json.loads(run_spec(spec, tmp_path / "w4", workers=4).read_text())
    # worker count must not change the result, including point order
    assert one["payload"] == four["payload"]
    values = [p["value"] for p in one["payload"]["points"]]
    assert values == [0.0, 1 / 3, 2 / 3, 1.0]


def test_verify_csv_rows_are_the_reported_values(tmp_path):
    # each check's CSV value is the value its payload entry reports
    value_keys = {"algebra": "residual", "symmetry": "residual", "kms": "max_residual",
                  "eeb": "min_deficit", "stability": "min_value"}
    spec = parse_spec_file(RUNSPECS / "verify.json")
    checks = json.loads(run_spec(spec, tmp_path).read_text())["payload"]["checks"]
    header, *rows = (tmp_path / spec.output["csv"]).read_text().splitlines()
    assert header == "check,value,ok"
    assert [row.split(",")[0] for row in rows] == spec.params["checks"]
    for row in rows:
        name, value, ok = row.split(",")
        assert float(value) == checks[name][value_keys[name]], name
        assert ok == ("true" if checks[name]["ok"] else "false")
    assert checks["kms"]["max_residual"] > 0.0  # rounding-level, not an exact zero


def test_readme_check_table_matches_the_check_records():
    readme = (RUNSPECS.parent / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
        if len(cells) == 5 and cells[0] in cli.CHECKS:
            rows[cells[0]] = cells[1:]
    assert set(rows) == set(cli.CHECKS)
    for name, check in cli.CHECKS.items():
        value, threshold, rule, seed = rows[name]
        assert value == (f"{check.value}, {check.witness[0]}" if check.witness else check.value)
        assert float(threshold.replace("\u2212", "-")) == check.threshold
        assert rule == ("value \u2264 threshold" if check.upper else "value \u2265 threshold")
        assert seed == ("none" if check.seed is None
                        else "seed" + (f"+{check.seed}" if check.seed else ""))


def test_verify_builds_one_gibbs_state_per_beta(tmp_path, monkeypatch):
    # kms and eeb read the same Gibbs state at each beta
    built = []

    class CountingGibbsState(states.GibbsState):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("beta"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(states, "GibbsState", CountingGibbsState)
    betas = [0.5, 1.0]
    doc = _spec("verify", {"checks": ["kms", "eeb"], "betas": betas, "num_probes": 4},
                model={"name": "xxz_suq2", "params": {"q": 0.5}},
                volume={"dims": [5], "boundary": "open"}, seed=0)
    payload = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]
    assert payload["all_ok"] is True
    assert built == betas


@pytest.mark.parametrize("betas", [[0.5, 1.0], [0.25, 0.5, 1.0]])
def test_verify_transforms_each_kms_probe_once(tmp_path, monkeypatch, betas):
    # the KMS terms are prepared before the beta loop: one eigen_diagonal
    # gather per drawn probe pair, whatever the number of betas, and no
    # EigenSystem.pairs pass
    calls = []
    for name in ("pairs", "eigen_diagonal"):
        def counting(self, *args, _name=name, _original=getattr(spectra.EigenSystem, name)):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(spectra.EigenSystem, name, counting)
    doc = _spec("verify", {"checks": ["kms", "eeb", "stability"], "betas": betas,
                           "num_probes": 5},
                model={"name": "xxz_suq2", "params": {"q": 0.5}},
                volume={"dims": [5], "boundary": "open"}, seed=3)
    payload = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]
    assert payload["all_ok"] is True
    assert calls == ["eigen_diagonal"] * 5


@pytest.mark.parametrize("start", ["x", None, True], ids=["string", "null", "true"])
def test_malformed_scan_grid_is_a_spec_error(tmp_path, capsys, start):
    # grid bounds are numbers like every other number in a spec
    grid = {"start": start, "stop": 1.0, "num": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec("scan", {"variable": "J", "grid": grid},
                                          model=_FREE_J)))
    assert main(["run", str(spec_path), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["kind"] == "SpecFileError"


_NON_FINITE_SECTIONS = {
    "dynamics.times": ("dynamics", lambda v: {"times": [0.0, v], "distances": [1]}),
    "thermal.betas": ("thermal", lambda v: {"betas": [0.5, v]}),
    "verify.betas": ("verify", lambda v: {"checks": ["algebra"], "betas": [v]}),
    "scan.values": ("scan", lambda v: {"variable": "J", "values": [0.5, v]}),
    "scan.grid": ("scan", lambda v: {"variable": "J", "grid": {"start": 0.5, "stop": v, "num": 3}}),
}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("where", list(_NON_FINITE_SECTIONS))
def test_non_finite_numbers_are_spec_errors(tmp_path, capsys, where, value):
    # json.loads accepts NaN and +-Infinity, and a 401-digit integer overflows
    # a float; each is refused at parse time with exit 2, not a numerics
    # failure or a traceback once the task runs
    task, section = _NON_FINITE_SECTIONS[where]
    text = json.dumps(_spec(task, section(12345.0), model=_FREE_J if task == "scan" else None))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text.replace("12345.0", value))
    assert main(["run", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().out.strip())["error"]
    assert err["kind"] == "SpecFileError" and err["exit_code"] == 2
    assert "must be a finite number" in err["message"]
    assert not (tmp_path / "out").exists()


def test_reruns_are_byte_identical(tmp_path):
    doc_in = _spec("verify", {"betas": [0.5, 1.0], "num_probes": 6}, seed=21)
    spec = parse_spec_dict(doc_in)
    p1 = run_spec(spec, tmp_path / "r1")
    p2 = run_spec(spec, tmp_path / "r2")
    assert p1.read_bytes() == p2.read_bytes()


def test_main_success_prints_json_line(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec("spectrum", {})))
    code = main(["run", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    ok = json.loads(out[-1])
    assert ok["ok"] is True and ok["task"] == "spectrum"


def test_main_exit_codes(tmp_path, capsys):
    # unreadable spec -> 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["exit_code"] == 2

    # resource cap -> 3
    doc = _spec("spectrum", {}, volume={"dims": [17], "boundary": "open"})
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["kind"] == "ResourceCapError"

    # imaginary-time range blowup -> 4
    doc = _spec("verify", {"checks": ["kms"], "betas": [1e6], "num_probes": 2},
                seed=1)
    p2 = tmp_path / "hot.json"
    p2.write_text(json.dumps(doc))
    assert main(["run", str(p2), "--out", str(tmp_path)]) == 4
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["kind"] == "RangeLimitError"


@pytest.mark.parametrize("seed, checks", [(-1, ["kms"]), (-2, ["eeb", "stability"])])
def test_main_refuses_negative_seeds(tmp_path, capsys, seed, checks):
    # the probe seeds are seed + 0 / 1 / 2, and numpy refuses negative ones
    doc = _spec("verify", {"checks": checks, "betas": [0.5], "num_probes": 2}, seed=seed)
    p = tmp_path / "negative.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["kind"] == "SpecFileError" and "seed" in err["error"]["message"]


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--cap-dense", "-5"),
                                         ("--cap-sparse", "0")])
def test_numeric_flags_below_one_are_spec_errors(tmp_path, capsys, flag, value):
    # one check for the three flags: exit 2 before any task runs, not a
    # refused eigendecomposition (exit 3) at the first cap it meets
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec("spectrum", {})))
    assert main(["run", str(spec_path), "--out", str(tmp_path / "out"), flag, value]) == 2
    err = json.loads(capsys.readouterr().out.strip())["error"]
    assert err == {"kind": "SpecFileError", "exit_code": 2,
                   "message": f"{flag} must be >= 1, got {value}"}
    assert not (tmp_path / "out").exists()


def test_parse_spec_file_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SpecFileError):
        parse_spec_file(p)


def test_a_run_loads_neither_scipy_linalg_nor_sparse_linalg_nor_csgraph(tmp_path):
    # a fresh interpreter imports the package and runs every runspec; numpy
    # and scipy.sparse are all it needs: the ARPACK norm above the dense cap
    # and expm_multiply import scipy.sparse.linalg where they run
    script = f"""
import json, sys
from pathlib import Path
import spinmodels
from spinmodels import cli
heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
loaded = [[m for m in heavy if m in sys.modules]]
for spec in sorted(Path({str(RUNSPECS)!r}).glob("*.json")):
    cli.run_spec(cli.parse_spec_file(spec), Path({str(tmp_path)!r}) / spec.stem)
loaded.append([m for m in heavy if m in sys.modules])
print(json.dumps(loaded))
"""
    env = {**os.environ, "PYTHONPATH": str(RUNSPECS.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
    assert len(list(tmp_path.iterdir())) == len(list(RUNSPECS.glob("*.json")))


def test_console_entry_point_subprocess(tmp_path):
    """stdout carries exactly one JSON line; progress stays on stderr."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec("thermal", {"betas": [0.5]})))
    proc = subprocess.run(
        [sys.executable, "-m", "spinmodels.cli", "run", str(spec_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["ok"] is True
    assert "wall_time" in proc.stderr
    assert "task=thermal" in proc.stderr


def test_krylov_spectrum_lists_whole_multiplets(tmp_path):
    # ferromagnetic 8-site ring: the ground multiplet is 9-fold at E = -2, so
    # the six lowest levels are all -2, even on the block Lanczos route
    doc_in = _spec("spectrum", {"method": "krylov", "num_eigenvalues": 6},
                   model={"name": "heisenberg", "params": {"J": 1.0}},
                   volume={"dims": [8], "boundary": "periodic"})
    doc = json.loads(run_spec(parse_spec_dict(doc_in), tmp_path).read_text())
    payload = doc["payload"]
    assert payload["method"] == "krylov"
    assert payload["degeneracy"] == 9
    assert len(payload["eigenvalues"]) == 6
    assert np.allclose(payload["eigenvalues"], -2.0, atol=1e-10)


@pytest.mark.parametrize("name, code", [
    ("verify.json", 3),
    ("thermal.json", 3),
    ("dynamics.json", 3),
    ("dynamics_aklt.json", 3),
    ("spectrum.json", 0),
    ("spectrum_ferro.json", 0),
    ("spectrum_spin1.json", 3),
    ("scan.json", 0),
])
def test_cap_dense_reaches_every_task(tmp_path, capsys, name, code):
    # dims 32..4096 exceed a dense cap of 16: tasks that need the full
    # eigendecomposition, or a spectrum that asks for the dense route,
    # refuse; low-end tasks switch to block Lanczos
    out = tmp_path / "out"
    assert main(["run", str(RUNSPECS / name), "--out", str(out),
                 "--cap-dense", "16"]) == code
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    if code:
        assert line["error"]["kind"] == "ResourceCapError"
        return
    doc = json.loads(Path(line["result"]).read_text())
    points = doc["payload"].get("points", [doc["payload"]])
    assert all(p.get("method", "krylov") == "krylov" for p in points)
    assert doc["provenance"]["caps"]["dense"] == 16


@pytest.mark.parametrize("task, section, model", [
    ("verify", {"checks": ["kms", "eeb", "stability"], "betas": [0.5, 1.0],
                "num_probes": 6}, {"name": "xxz_suq2", "params": {"q": 0.5}}),
    ("dynamics", {"times": [0.0, 0.5, 1.0], "distances": [0, 1, 2, 3, 4, 5],
                  "observable": "s3"}, {"name": "heisenberg", "params": {"J": 1.0}}),
], ids=["verify", "dynamics"])
def test_local_operators_are_never_densified(tmp_path, capsys, forbid_full_toarray,
                                             task, section, model):
    # probes, H and products of local operators stay CSR: no sparse matrix
    # of the full dimension 64 is ever turned into a dense array
    forbid_full_toarray(64)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec(
        task, section, model=model, volume={"dims": [6], "boundary": "open"}, seed=3)))
    assert main(["run", str(spec_path), "--out", str(tmp_path)]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    payload = json.loads(Path(line["result"]).read_text())["payload"]
    assert payload.get("all_ok", True) is True


@pytest.mark.parametrize("model", [
    {"name": "xxz_suq2", "params": {"q": 0.5}},
    {"name": "heisenberg", "params": {"J": -1.0}},
    {"name": "ising", "params": {"h": 0.3}},
])
def test_symmetry_check_under_small_dense_cap(tmp_path, capsys, monkeypatch, model):
    # dim 32 > cap 16: H and every generator stay sparse
    sparse = []

    def recording_residual(h, gens, **kwargs):
        sparse.extend([sp.issparse(h)] + [sp.issparse(g) for _, g in gens])
        return invariance_residual(h, gens, **kwargs)

    monkeypatch.setattr(cli, "invariance_residual", recording_residual)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec(
        "verify", {"checks": ["algebra", "symmetry"]}, model=model,
        volume={"dims": [5], "boundary": "open"})))
    assert main(["run", str(spec_path), "--out", str(tmp_path), "--cap-dense", "16"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    payload = json.loads(Path(line["result"]).read_text())["payload"]
    assert payload["all_ok"] is True
    assert payload["checks"]["symmetry"]["ok"] is True
    assert len(sparse) >= 2 and all(sparse)


def test_symmetry_check_norms_follow_the_dense_cap(tmp_path, capsys, monkeypatch):
    # dim 8192: under the default cap (4096) the norms of [H, K+] and [H, K-]
    # are ARPACK svds estimates; under --cap-dense 8192 they are block solves
    # of their Gram matrices, and both routes read the same residual
    calls = []
    svds = spla.svds
    monkeypatch.setattr(spla, "svds", lambda *a, **k: calls.append(1) or svds(*a, **k))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec(
        "verify", {"checks": ["symmetry"]}, model={"name": "xxz_suq2", "params": {"q": 0.5}},
        volume={"dims": [13], "boundary": "open"})))
    residuals, solves = [], []
    for cap in ([], ["--cap-dense", "8192"]):
        calls.clear()
        assert main(["run", str(spec_path), "--out", str(tmp_path)] + cap) == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        residuals.append(json.loads(Path(line["result"]).read_text())
                         ["payload"]["checks"]["symmetry"]["residual"])
        solves.append(len(calls))
    assert solves[0] > 0 and solves[1] == 0
    assert residuals[1] > 0 and abs(residuals[0] - residuals[1]) <= 1e-9 * residuals[1]


@pytest.mark.parametrize("task, section, model, volume, code", [
    # [H, S3] and [H, S1] of the ring, and [H, K3] of the chain, are exactly zero
    ("verify", {"checks": ["algebra", "symmetry"]}, {"name": "heisenberg", "params": {"J": -1.0}},
     {"dims": [13], "boundary": "periodic"}, 0),
    ("verify", {"checks": ["algebra", "symmetry"]}, {"name": "xxz_suq2", "params": {"q": 0.5}},
     {"dims": [13], "boundary": "open"}, 0),
    # H = 0: every level is in the ground window
    ("spectrum", {"method": "krylov"}, {"name": "ising", "params": {"J": 0.0, "h": 0.0}},
     {"dims": [8], "boundary": "periodic"}, 4),
], ids=["heisenberg-ring", "xxz_suq2-chain", "zero-krylov"])
def test_exactly_zero_operators_reach_no_arpack(tmp_path, capsys, task, section, model,
                                                volume, code):
    # ARPACK cannot start on a zero matrix: a zero commutator's norm is 0.0
    # with no solver call, and the krylov window takes its scale from Lanczos
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec(task, section, model=model, volume=volume)))
    assert main(["run", str(spec_path), "--out", str(tmp_path)]) == code
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    if code:
        assert line["error"]["kind"] == "SolverError"
        assert "degeneracy exceeds" in line["error"]["message"]
        return
    assert json.loads(Path(line["result"]).read_text())["payload"]["all_ok"] is True


@pytest.mark.parametrize("name, dim, per_point", [
    ("verify.json", 32, False),
    ("thermal.json", 64, False),
    ("dynamics_aklt.json", 729, False),
    ("spectrum.json", 256, False),
    ("spectrum_spin1.json", 243, False),
    ("scan.json", 64, True),
])
def test_one_dense_eigendecomposition_per_hamiltonian(tmp_path, monkeypatch,
                                                      name, dim, per_point):
    # every dense eigensolve goes through hermitian_eig; a call whose blocks of
    # eigenvectors cover the full dimension is a decomposition of H (norms ask
    # for eigenvalues only, and then no blocks come back)
    calls, scattered = [], []
    solve, scatter = spin_algebra.hermitian_eig, spin_algebra.eigenvector_columns

    def counting_solve(m, vectors=True):
        eig = solve(m, vectors)
        if eig.blocks is not None and sum(idx.size for idx, _, _ in eig.blocks) == dim:
            calls.append(1)
        return eig

    def recording_scatter(eig, *args):
        out = scatter(eig, *args)
        scattered.append(out.shape)
        return out

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("spinmodels"):
            for attr, original, patched in (
                    ("hermitian_eig", solve, counting_solve),
                    ("eigenvector_columns", scatter, recording_scatter)):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, patched)
    doc = json.loads(run_spec(parse_spec_file(RUNSPECS / name), tmp_path).read_text())
    hamiltonians = len(doc["payload"]["points"]) if per_point else 1
    assert len(calls) == hamiltonians
    # the decomposition stays in blocks: no dim x dim eigenvector matrix
    assert (dim, dim) not in scattered
