import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathmeter import _floattext, cli
from pathmeter.errors import LengthMismatch
from pathmeter.hilbert import exact_propagator

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
NAN, INF = float("nan"), float("inf")

BASE_CONFIG = {
    "schema_version": 1,
    "route": "crosscheck",
    "seed": 0,
    "system": {"kind": "qubit", "epsilon1": 0.0, "epsilon2": 1.0, "coupling": 0.5},
    "observable": {"kind": "coordinates"},
    "time": {"total": 1.0, "slices": 10},
    "initial_state": "uniform",
    "meters": [
        {
            "beta": {"kind": "constant", "value": 1.0},
            "grid": {"points": 256, "aligned": True},
            "kernel": {"kind": "gaussian", "width": 0.12},
        }
    ],
    "mensky": {"sigma": 0.001},
}
METER = BASE_CONFIG["meters"][0]
PLAIN_METER = {k: v for k, v in METER.items() if k != "kernel"}
TRANSFORM = {"observable_b": {"kind": "matrix", "entries": [[0.0, 1.0], [1.0, 0.0]]}}


def write_config(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def set_at(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def run_main(tmp_path, cfg, *extra):
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    return cli.main(["run", path, "--out", out, *extra]), out


class TestRun:
    def test_crosscheck_passes(self, tmp_path):
        code, out = run_main(tmp_path, BASE_CONFIG)
        assert code == cli.EXIT_PASS
        report = json.loads((tmp_path / "out" / "residuals.json").read_text())
        assert report["paths_vs_lambda"]["pass"]
        assert report["path_completeness"]["value"] <= 1e-12

    def test_missing_field_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        del cfg["time"]
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG
        assert "time" in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [
        ({"time": {"total": 1.0, "slices": 0}}, "time.slices"),
        ({"time": {"total": 1.0, "slices": "abc"}}, "time.slices"),
        ({"time": {"total": 1.0, "slices": 12.9}}, "time.slices"),
        ({"meters": [{"beta": {"kind": "constant", "value": 1.0},
                      "grid": {"points": 100, "aligned": True}}]},
         "meters[0].grid.points"),
        ({"seed": -1}, "seed"),
        ({"system": {"kind": "random", "dim": 2.5}}, "system.dim"),
        ({"route": "lambda", "system": {"kind": "particle1d", "n_x": 100}},
         "system.n_x"),
    ])
    def test_bad_integer_field_exits_2_and_names_it(self, tmp_path, capsys,
                                                    override, field):
        cfg = {**copy.deepcopy(BASE_CONFIG), **override}
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [
        ({"time": {"total": -1.0, "slices": 10}}, "time.total"),
        ({"time": {"total": float("nan"), "slices": 10}}, "time.total"),
        ({"meters": [{"beta": {"kind": "constant", "value": 1.0},
                      "grid": {"points": 256, "aligned": True},
                      "kernel": {"kind": "gaussian", "width": -0.1}}]},
         "meters[0].kernel.width"),
        ({"mensky": {"sigma": -1.0}}, "mensky.sigma"),
        ({"meters": [{"beta": {"kind": "constant", "value": 1.0},
                      "grid": {"points": 256, "df": 0}}]}, "meters[0].grid.df"),
        ({"tolerances": {"completeness": "abc"}}, "tolerances.completeness"),
        ({"tolerances": [1e-12]}, "tolerances"),
        ({"tolerances": {"completness": 1e-300}}, "tolerances.completness"),
        ({"time": 5}, "time"),
        ({"meters": [3]}, "meters[0]"),
        ({"meters": [{**METER, "grid": 7}]}, "meters[0].grid"),
        ({"mensky": 5}, "mensky"),
        ({"meters": [{**METER, "beta": {"kind": "sampled", "values": 3}}]},
         "meters[0].beta.values"),
        ({"initial_state": [NAN, 0.0]}, "initial_state"),
        ({"meters": [{**METER, "grid": {"points": 256, "aligned": "yes"}}]},
         "meters[0].grid.aligned"),
        ({"tolerances": {"crosscheck": NAN}}, "tolerances.crosscheck"),
        ({"output": "csv"}, "output"),
        ({"output": {"format": "xml"}}, "output.format"),
        ({"output": {"dir": 5}}, "output.dir"),
        ({"route": "transform", "transform": 3}, "transform"),
        ({"route": "transform", "transform": {"observable_b": {
            "kind": "matrix", "entries": [[0.0, 1.0], [1.0]]}}},
         "transform.observable_b.entries"),
        # values that pass the field checks but that a constructor rejects
        ({"meters": [{**METER, "grid": {"points": 256, "df": 1e-320}}]}, "meters[0].grid"),
        ({"time": {"total": 1e-320, "slices": 10}}, "time"),
        ({"meters": [{**METER, "beta": {"kind": "constant", "value": 1e300}}]},
         "meters[0].beta"),
        ({"route": "transform", "transform": TRANSFORM, "time": {"total": 1e-320, "slices": 10},
          "meters": [{**PLAIN_METER, "grid": {"points": 256, "df": 0.05}}]}, "time"),
        ({"meters": [{**METER, "beta": {"kind": "impulse", "t0": 5.0}}]},
         "meters[0].beta.t0"),
        # settings a route would drop: a kernel is read from meters[0] only,
        # and a transform takes one meter
        ({"route": "lambda", "meters": [PLAIN_METER, METER]}, "meters[1].kernel"),
        ({"route": "transform", "transform": TRANSFORM, "meters": [PLAIN_METER] * 2},
         "meters:"),
        # and only the lambda and crosscheck routes coarse-grain a field
        ({"route": "paths"}, "meters[0].kernel"),
        ({"route": "mensky"}, "meters[0].kernel"),
        ({"route": "transform", "transform": TRANSFORM}, "meters[0].kernel"),
        # a tube width whose square or damping rate eps / sigma^2 leaves float range
        ({"route": "mensky", "meters": [PLAIN_METER], "mensky": {"sigma": 1e-200}},
         "mensky.sigma"),
        ({"route": "mensky", "meters": [PLAIN_METER], "mensky": {"sigma": 1e-160}},
         "mensky.sigma"),
        ({"route": "mensky", "meters": [PLAIN_METER], "mensky": {"sigma": 1e300}},
         "mensky.sigma"),
        ({"mensky": {"sigma": 1e300}}, "mensky.sigma"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bad_value_exits_2_and_names_it(self, tmp_path, capsys, override, field):
        cfg = {**copy.deepcopy(BASE_CONFIG), **override}
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [
        (("system", "mass"), 0.0, "system.mass"),
        (("system", "mass"), -1.0, "system.mass"),
        (("system", "dx"), 0.0, "system.dx"),
        (("system", "dx"), -0.1, "system.dx"),
        (("system", "packet", "width"), 0.0, "system.packet.width"),
        (("system", "potential"), {"kind": "samples", "values": ["a"] * 256},
         "system.potential.values"),
        (("system", "potential"), {"kind": "barrier", "lo": 4.0, "hi": 4.5, "height": NAN},
         "system.potential.height"),
        (("system", "x_min"), NAN, "system.x_min"),
        (("system", "packet", "center"), INF, "system.packet.center"),
        (("system", "packet", "momentum"), NAN, "system.packet.momentum"),
        (("meters", 0, "functional", "lo"), NAN, "meters[0].functional.lo"),
        (("meters",), 3, "meters"),
        # values that pass the field checks but that the lattice rejects
        (("system", "dx"), 1e-300, "system"),
        (("system", "packet", "width"), 1e-300, "system"),
        (("system", "mass"), 1e-320, "system"),
        # a particle meter has no coarse-grained field
        (("meters", 0, "kernel"), {"kind": "gaussian", "width": 0.1}, "meters[0].kernel"),
    ], ids=lambda v: v[-1] if isinstance(v, tuple) else None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bad_particle_value_exits_2_and_names_it(self, tmp_path, capsys,
                                                     path, value, field):
        cfg = json.loads((CONFIGS / "particle_dwell.json").read_text())
        set_at(cfg, path, value)
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not_utf8", "deep_nesting"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "<file>" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["schema_version"] = 99
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG

    def test_path_cap_exits_3(self, tmp_path, capsys):
        """Incommensurate slice weights merge almost no classes, so slice 4
        would need about 64^4 candidates, past PATH_CAP."""
        cfg = {
            "schema_version": 1,
            "route": "paths",
            "seed": 3,
            "system": {"kind": "random", "dim": 64},
            "observable": {"kind": "coordinates"},
            "time": {"total": 1.0, "slices": 4},
            "meters": [{
                "beta": {"kind": "sampled",
                         "values": [1.0, 2**0.5, 3**0.5, 5**0.5]},
                "grid": {"points": 256, "df": 0.05},
            }],
        }
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_RESOURCE
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_scaled_observable_crosscheck_passes(self, tmp_path, scale):
        """The qubit crosscheck fixture, observable diag(1, 2) * scale: the
        bins follow the scale of the readouts, so both routes still agree."""
        cfg = json.loads((CONFIGS / "qubit_crosscheck.json").read_text())
        del cfg["meters"][0]["kernel"], cfg["mensky"]
        cfg["observable"] = {"kind": "matrix", "entries": [[scale, 0.0], [0.0, 2 * scale]]}
        code, out = run_main(tmp_path, cfg)
        assert code == cli.EXIT_PASS
        assert len((tmp_path / "out" / "bins.csv").read_text().splitlines()) == 1 + 13

    def test_residual_failure_exits_1(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["tolerances"] = {"crosscheck": 1e-30}
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_RESIDUAL

    def test_born_probabilities(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["route"] = "lambda"
        cfg["time"] = {"total": 1.0, "slices": 4}
        cfg["system"]["coupling"] = 0.0
        cfg["system"]["epsilon2"] = 0.0
        cfg["meters"] = [{
            "beta": {"kind": "impulse", "t0": 0.5},
            "grid": {"points": 512, "df": 0.015625},
            "kernel": {"kind": "gaussian", "width": 0.1},
        }]
        code, out = run_main(tmp_path, cfg)
        assert code == cli.EXIT_PASS
        rows = (tmp_path / "out" / "probabilities.csv").read_text().splitlines()
        assert rows[0] == "f,W"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        f, W = data[:, 0], data[:, 1]
        low = W[f < 1.5].sum()
        high = W[f >= 1.5].sum()
        assert low / (low + high) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("points, df, width, tol, code", [
        (16, 0.5, 0.5, 1e-6, cli.EXIT_CONFIG),  # probability_mass would read 1.0e-2
        (256, 0.05, 0.05, 1e-6, cli.EXIT_CONFIG),  # 1.0e-3
        (16, 0.5, 0.8, 1e-6, cli.EXIT_CONFIG),  # 7.4e-6
        (16, 0.5, 0.8, 1e-5, cli.EXIT_PASS),
        (16, 0.5, 1.0, 1e-6, cli.EXIT_PASS),  # 7.8e-9
        (256, 0.05, 0.08, 1e-6, cli.EXIT_PASS),  # 7.0e-7
        # a gap at rounding level is not the width's doing: the residual fails
        (256, 0.05, 0.5, -1.0, cli.EXIT_RESIDUAL),
    ])
    def test_narrow_gaussian_kernel_is_a_config_error(self, tmp_path, capsys,
                                                      points, df, width, tol, code):
        """A gaussian kernel about df wide has its lambda symbol cut off at
        the grid edge, which would fail probability_mass; the config is
        refused and the width named instead."""
        cfg = json.loads((CONFIGS / "qubit_crosscheck.json").read_text())
        cfg["route"] = "lambda"
        cfg["tolerances"] = {"probability_mass": tol}
        cfg["meters"] = [{"beta": {"kind": "impulse", "t0": 0.5},
                          "grid": {"points": points, "df": df},
                          "kernel": {"kind": "gaussian", "width": width}}]
        assert run_main(tmp_path, cfg)[0] == code
        assert ("meters[0].kernel.width" in capsys.readouterr().err) == (code == cli.EXIT_CONFIG)

    def test_two_meter_lambda_tables_cover_the_product_grid(self, tmp_path):
        cfg = json.loads((CONFIGS / "qubit_crosscheck.json").read_text())
        cfg["route"] = "lambda"
        cfg["meters"] = [{"beta": {"kind": "impulse", "t0": t0},
                          "grid": {"points": 32, "df": 0.5}} for t0 in (0.25, 0.75)]
        cfg["meters"][0]["kernel"] = {"kind": "gaussian", "width": 1.5}
        code, out = run_main(tmp_path, cfg)
        assert code == cli.EXIT_PASS
        f = (np.arange(32) - 16) * 0.5
        tables = {}
        for name in ("field", "coarse_field", "probabilities"):
            header, *rows = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
            data = np.array([[float(v) for v in r.split(",")] for r in rows])
            assert header.split(",")[:2] == ["f_0", "f_1"]
            assert data.shape[0] == 32 * 32
            assert np.array_equal(data[:, 0], np.repeat(f, 32))
            assert np.array_equal(data[:, 1], np.tile(f, 32))
            tables[name] = data
        field = tables["field"]
        marginal = (field[:, 2::2] + 1j * field[:, 3::2]).sum(axis=0) * 0.5 * 0.5
        exp = cli._Experiment(cfg)
        undisturbed = exact_propagator(exp.hamiltonian, 1.0) @ exp.psi0
        assert np.abs(marginal - undisturbed).max() < 1e-12

    def test_mensky_route(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["route"] = "mensky"
        cfg["mensky"] = {"sigma": 1.0}
        del cfg["meters"][0]["kernel"]
        code, out = run_main(tmp_path, cfg)
        assert code == cli.EXIT_PASS
        rows = (tmp_path / "out" / "records.csv").read_text().splitlines()
        assert rows[0].endswith("norm2")

    def test_transform_route(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["route"] = "transform"
        cfg["transform"] = {
            "observable_b": {"kind": "matrix", "entries": [[0.0, 1.0], [1.0, 0.0]]}
        }
        del cfg["meters"][0]["kernel"]
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_PASS

    def test_particle_route(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "route": "lambda",
            "system": {
                "kind": "particle1d",
                "n_x": 256,
                "x_min": -16.0,
                "dx": 0.125,
                "mass": 1.0,
                "packet": {"center": 0.0, "width": 1.0},
                "potential": {"kind": "zero"},
            },
            "time": {"total": 1.0, "slices": 64},
            "meters": [{
                "beta": {"kind": "constant", "value": 1.0},
                "grid": {"points": 64, "df": 0.0625},
                "functional": {"kind": "region", "lo": -12.0, "hi": 12.0},
            }],
        }
        code, out = run_main(tmp_path, cfg)
        assert code == cli.EXIT_PASS
        assert (tmp_path / "out" / "field.csv").exists()


class TestEmit:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        p1 = tmp_path / "a"
        p2 = tmp_path / "b"
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", path, "--out", str(p1)]) == 0
        assert cli.main(["run", path, "--out", str(p2)]) == 0
        for f in sorted(p1.iterdir()):
            assert f.read_bytes() == (p2 / f.name).read_bytes(), f.name

    def test_csv_bytes_do_not_depend_on_buffer_size(self, tmp_path, monkeypatch):
        bundle = cli.run(copy.deepcopy(BASE_CONFIG))
        whole = cli.emit(bundle, "csv", str(tmp_path / "whole"))
        monkeypatch.setattr(_floattext, "SLAB_CELLS", 1)  # one row per slab
        rows = cli.emit(bundle, "csv", str(tmp_path / "rows"))
        monkeypatch.setattr(_floattext, "CHUNK_CELLS", 7)  # chunks cut inside rows
        monkeypatch.setattr(_floattext, "SLAB_CELLS", 100)
        chunks = cli.emit(bundle, "csv", str(tmp_path / "chunks"))
        assert (tmp_path / "whole" / "field.csv").stat().st_size > 2 * 8192
        for paths in zip(whole, rows, chunks):
            assert len({pathlib.Path(p).read_bytes() for p in paths}) == 1, paths[0]

    def test_non_float_table_is_written_in_process(self, tmp_path):
        table = {"n": np.arange(6), "x": np.linspace(0.0, 1.0, 6)}
        cli.emit(cli.ResultBundle({}, {"t": table}, {}), "csv", str(tmp_path))
        assert (tmp_path / "t.csv").read_text().splitlines()[-1] == "5,1.0"

    def test_ragged_table_is_refused_before_any_file(self, tmp_path):
        table = {"f": np.arange(4.0), "x": np.arange(16.0)}
        bundle = cli.ResultBundle({}, {"a": {"y": np.ones(3)}, "t": table}, {})
        with pytest.raises(LengthMismatch, match="'t'"):
            cli.emit(bundle, "csv", str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_unwritable_table_exits_2(self, tmp_path, capsys):
        (tmp_path / "out" / "bins.csv").mkdir(parents=True)
        code, _ = run_main(tmp_path, BASE_CONFIG)
        assert code == cli.EXIT_CONFIG
        assert "I/O error" in capsys.readouterr().err

    def test_out_flag_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**BASE_CONFIG, "output": {"dir": "from_config"}})
        assert cli.main(["run", path, "--out", "out"]) == cli.EXIT_PASS
        assert (tmp_path / "out" / "residuals.json").exists()
        assert not (tmp_path / "from_config").exists()
        assert cli.main(["run", path]) == cli.EXIT_PASS
        assert (tmp_path / "from_config" / "residuals.json").exists()

    def test_json_format(self, tmp_path):
        code, out = run_main(tmp_path, BASE_CONFIG, "--format", "json")
        doc = json.loads((tmp_path / "out" / "result.json").read_text())
        assert code == cli.EXIT_PASS
        assert set(doc) == {"metadata", "tables", "residuals"}
        assert "bins" in doc["tables"]

    def test_csv_readout_column_first(self, tmp_path):
        code, out = run_main(tmp_path, BASE_CONFIG)
        header = (tmp_path / "out" / "field.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "f"

    @pytest.mark.parametrize("name", [
        "qubit_crosscheck", "born_instantaneous", "particle_dwell", "transform_pair",
        "generic_crosscheck"])
    def test_checked_in_fixtures_pass(self, tmp_path, name):
        fixture = CONFIGS / f"{name}.json"
        code = cli.main(["run", str(fixture), "--out", str(tmp_path / name)])
        assert code == cli.EXIT_PASS

    def test_random_system_seeded(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "route": "paths",
            "seed": 42,
            "system": {"kind": "random", "dim": 3},
            "time": {"total": 0.7, "slices": 6},
            "meters": [{
                "beta": {"kind": "constant", "value": 1.0},
                "grid": {"points": 128, "aligned": True},
            }],
        }
        code, out = run_main(tmp_path, cfg)
        assert code == cli.EXIT_PASS


def test_import_loads_no_subprocess_module():
    """The import that every run pays loads no process machinery and no
    exact-arithmetic module: the float tables are built from integers on
    the first write."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = ("import sys, pathmeter.cli; "
             "print(sorted({'subprocess', 'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# Size fields never take a value above 64 here: oversized runs are not yet
# refused before they allocate.
SIZE_KEYS = {"slices", "points", "n_x", "dim"}
SIZES = st.integers(-64, 64) | st.floats(-64.0, 64.0)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("xyz", max_size=2), inner, max_size=2)),
    max_leaves=5,
)
FIXTURES = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}


def value_paths(doc, prefix=()):
    """The path of every value inside a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield prefix + (key,)
            yield from value_paths(value, prefix + (key,))


@pytest.mark.filterwarnings("ignore")
@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_fixture_edit_keeps_the_exit_code_contract(data):
    """One value of a fixture replaced by any JSON value: no exception
    escapes, the exit code is 0-3, and 1 comes with a FAIL line."""
    cfg = copy.deepcopy(FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)))])
    path = data.draw(st.sampled_from(list(value_paths(cfg))))
    set_at(cfg, path, data.draw(SIZES if path[-1] in SIZE_KEYS else JSON_VALUES))
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "exp.json"
        config.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(config), "--out", str(pathlib.Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    assert code != 1 or "FAIL" in out.getvalue()
