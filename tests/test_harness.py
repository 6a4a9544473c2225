import json
import os
import subprocess
import sys

import numpy as np
import pytest

from equiflow.errors import ConfigInvalid, UnknownSuite
from equiflow.harness.cli import main, run_config, _load_config
from equiflow.harness.serialize import (
    dump_report,
    jsonable,
    matrix_from_wire,
    matrix_to_wire,
)
from equiflow.harness.suites import run_suite, suite_names


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestSerialize:
    def test_matrix_roundtrip(self):
        M = np.array([[1 + 2j, 0], [3, -1j]], dtype=complex)
        assert np.allclose(matrix_from_wire(matrix_to_wire(M)), M)

    def test_bad_wire(self):
        with pytest.raises(ConfigInvalid):
            matrix_from_wire([[1, 2], [3]])

    def test_jsonable_complex(self):
        out = jsonable({"z": 1 + 2j, "arr": np.array([1.0, 2.0])})
        assert out == {"z": [1.0, 2.0], "arr": [1.0, 2.0]}


class TestConfigValidation:
    def test_unknown_key(self, tmp_path):
        p = write_cfg(tmp_path, "c.json", {"kind": "sf", "bogus": 1})
        with pytest.raises(ConfigInvalid):
            _load_config(p)

    def test_unknown_kind(self, tmp_path):
        p = write_cfg(tmp_path, "c.json", {"kind": "nope"})
        with pytest.raises(ConfigInvalid):
            _load_config(p)

    def test_malformed_json_line_anchor(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"kind": "sf",\n  "generator": {')
        with pytest.raises(ConfigInvalid) as exc:
            _load_config(str(p))
        assert "line" in str(exc.value)

    def test_seed_required_for_random(self, tmp_path):
        cfg = {"kind": "sf", "generator": {"name": "random", "params": {"dim": 3}}}
        with pytest.raises(ConfigInvalid):
            run_config(cfg)


class TestScenarios:
    def test_diag_crossing_value(self):
        cfg = {"kind": "sf", "generator": {"name": "diag_crossing",
                                           "params": {"order": 3, "power": 1}}}
        body, _ = run_config(cfg)
        re, im = jsonable(body)["results"]["sf"]
        assert abs(re - (-0.5)) < 1e-9 and abs(im - 0.8660254037844387) < 1e-9

    def test_determinism(self):
        cfg = {"kind": "sf", "seed": 11,
               "generator": {"name": "random", "params": {"dim": 4, "order": 3}}}
        b1, _ = run_config(cfg)
        b2, _ = run_config(cfg)
        assert dump_report(b1) == dump_report(b2)

    def test_split_determinism(self):
        cfg = {"kind": "split", "seed": 3,
               "generator": {"name": "model",
                             "params": {"v": [0.25], "boundary": {"theta": [1.1]}}}}
        b1, _ = run_config(cfg)
        b2, _ = run_config(cfg)
        assert dump_report(b1) == dump_report(b2)
        resid = b1["results"]["u^0"]["abs_residual"]
        assert resid < 5e-3

    def test_interval_eta_scenario(self):
        cfg = {"kind": "interval_eta",
               "generator": {"name": "model",
                             "params": {"v": [0.0], "L": 1.0,
                                        "boundary": {"theta": [np.pi / 2]},
                                        "cutoff": 2000}}}
        body, spectra = run_config(cfg)
        v = body["results"]["u^0"]["eta"]
        assert abs(v - 0.5) < 1e-3

    def test_zeta_det_scenario_with_group(self):
        cfg = {"kind": "zeta_det",
               "generator": {"name": "diag", "params": {"entries": [2.0, -3.0]}},
               "group": {"order": 3, "weights": [1, 0], "powers": [0, 1]}}
        body, _ = run_config(cfg)
        r0 = body["results"]["g^0"]
        assert abs(r0["zeta_det"] - (-6.0)) < 1e-9


class TestCLI:
    def test_run_exit_codes(self, tmp_path):
        good = write_cfg(tmp_path, "good.json",
                         {"kind": "sf", "generator": {"name": "diag_crossing"}})
        assert main(["run", good]) == 0
        bad = write_cfg(tmp_path, "bad.json", {"kind": "sf", "nope": 1})
        assert main(["run", bad]) == 2

    def test_verify_unknown_suite(self):
        assert main(["verify", "no_such_suite"]) in (1, 2)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sf" in out and "verify" in out

    def test_csv_export(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "kind": "circle_eta",
            "generator": {"name": "model",
                          "params": {"v": [0.25], "window": [-2, 2], "cutoff": 500}},
            "output": {"csv": "spec.csv"},
        })
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "spec.csv")).read().strip().splitlines()
        assert lines[0].startswith("lambda,re_weight_")
        assert len(lines) == 5  # eigenvalues -1.75, -0.75, 0.25, 1.25

    def test_console_entrypoint(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"kind": "sf", "generator": {"name": "diag_crossing"}})
        proc = subprocess.run([sys.executable, "-m", "equiflow.harness.cli", "run", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert "report" in doc and "wall_time_s" in doc


class TestSuitesRegistry:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("definitely_not_registered")

    def test_names_listed(self):
        names = suite_names()
        for expected in ("sf_oracle", "split", "structural", "all"):
            assert expected in names


class TestTripleIndexScenario:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lattice_value_for_every_seed(self, n):
        # S and R are drawn in the actor's commutant, so every seed gives a value in
        # Z + Z omega; T is an open path, so the values are not all 0
        omega = np.exp(2j * np.pi / 3)
        values = []
        for seed in range(1, 9):
            cfg = {"kind": "triple_index", "seed": seed,
                   "generator": {"name": "random", "params": {"n": n}}}
            body, _ = run_config(cfg)
            z = body["results"]["triple_index"]
            k = z.imag / omega.imag
            m = z.real - k * omega.real
            assert abs(k - round(k)) < 1e-8 and abs(m - round(m)) < 1e-8, (seed, z)
            values.append(abs(z))
        assert max(values) > 0.5


class TestDoubleIndexScenario:
    def test_lattice_value_for_every_seed(self):
        # V is drawn in the actor's commutant, so every seed gives a value in Z + Z omega
        omega = np.exp(2j * np.pi / 3)
        for seed in range(1, 9):
            body, _ = run_config({"kind": "double_index", "seed": seed,
                                  "generator": {"name": "random"}})
            z = body["results"]["tau"]
            k = z.imag / omega.imag
            m = z.real - k * omega.real
            assert abs(k - round(k)) < 1e-8 and abs(m - round(m)) < 1e-8, (seed, z)
