import copy
import json
import pathlib

import numpy as np
import pytest

from pathmeter import cli

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

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


def write_config(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
    ])
    def test_bad_value_exits_2_and_names_it(self, tmp_path, capsys, override, field):
        cfg = {**copy.deepcopy(BASE_CONFIG), **override}
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, field", [
        ("mass", 0.0, "system.mass"),
        ("mass", -1.0, "system.mass"),
        ("dx", 0.0, "system.dx"),
        ("dx", -0.1, "system.dx"),
        ("width", 0.0, "system.packet.width"),
    ])
    def test_bad_particle_value_exits_2_and_names_it(self, tmp_path, capsys,
                                                     key, value, field):
        cfg = json.loads((CONFIGS / "particle_dwell.json").read_text())
        target = cfg["system"]["packet"] if key == "width" else cfg["system"]
        target[key] = value
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["schema_version"] = 99
        code, _ = run_main(tmp_path, cfg)
        assert code == cli.EXIT_CONFIG

    def test_path_cap_exits_3(self, tmp_path, capsys):
        """Incommensurate slice weights merge almost no classes, so slice 4
        would need about 64^4 candidates, past the default cap."""
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

    def test_mensky_route(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["route"] = "mensky"
        cfg["mensky"] = {"sigma": 1.0}
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
        monkeypatch.setattr(cli, "CSV_BUFFER_MAX", 1)  # default-size buffer, many flushes
        pieces = cli.emit(bundle, "csv", str(tmp_path / "pieces"))
        assert (tmp_path / "whole" / "field.csv").stat().st_size > 2 * 8192
        for a, b in zip(whole, pieces):
            assert open(a, "rb").read() == open(b, "rb").read(), a

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
        "qubit_crosscheck", "born_instantaneous", "particle_dwell", "transform_pair"])
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
