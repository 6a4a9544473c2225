import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from equiflow import dirac_models as dm
from equiflow.errors import ConfigInvalid, UnknownSuite
from equiflow.harness import cli
from equiflow.harness.cli import main, run_config, _load_config
from equiflow.harness.serialize import (
    dump_report,
    jsonable,
    matrix_from_wire,
    matrix_to_wire,
)
from equiflow.harness.suites import (
    _SUITES,
    _seeded_bott_loops,
    ACCEPTANCE_SEED,
    SuiteResult,
    run_suite,
    suite_names,
)


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


# one config per run kind (the verify kind runs the smallest suite)
KIND_CONFIGS = [
    {"kind": "sf", "generator": {"name": "diag_crossing", "params": {"order": 3, "power": 1}}},
    {"kind": "sf", "seed": 11, "generator": {"name": "random", "params": {"dim": 4}}},
    {"kind": "winding", "generator": {"name": "scalar_loop"}},
    {"kind": "maslov", "seed": 2, "generator": {"name": "random_pair", "params": {"n": 1}}},
    {"kind": "double_index", "seed": 3, "generator": {"name": "random"}},
    {"kind": "triple_index", "seed": 5, "generator": {"name": "random", "params": {"n": 1}}},
    {"kind": "eta", "generator": {"name": "diag"},
     "group": {"order": 3, "weights": [1, 0, 2], "powers": [0, 1]}},
    {"kind": "zeta_det", "seed": 4, "generator": {"name": "random", "params": {"dim": 3}}},
    {"kind": "getzler", "seed": 6, "generator": {"name": "random", "params": {"dim": 3}}},
    {"kind": "circle_eta", "generator": {"name": "model", "params": {
        "v": [0.25, 0.6], "u": matrix_to_wire(np.diag([np.exp(2j * np.pi / 3), 1.0])),
        "rotation_order": 4}}, "group": {"u_powers": [0, 1], "rotation_powers": [0, 1]}},
    {"kind": "interval_eta", "generator": {"name": "model", "params": {
        "v": [0.1], "L": 1.3, "boundary": {"aps": "default"}}}},
    {"kind": "sw_check", "generator": {"name": "model"}},
    {"kind": "split", "generator": {"name": "model", "params": {
        "v": [0.25], "boundary": {"calderon": True}}}},
    {"kind": "verify", "generator": {"name": "suite", "params": {"name": "split"}}},
]


def reference_dump(body, wall_time=None):
    doc = {"report": jsonable(body)}
    if wall_time is not None:
        doc["wall_time_s"] = round(float(wall_time), 6)
    return json.dumps(doc, sort_keys=True, indent=2)


class TestReportEncoder:
    """`dump_report` writes the bytes of json.dumps(sort_keys=True, indent=2)."""

    # the CLI passes no deprecated option (maslov_index's grid among them)
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_every_run_kind(self):
        assert {cfg["kind"] for cfg in KIND_CONFIGS} == set(cli.KINDS)
        for cfg in KIND_CONFIGS:
            body, _ = run_config(cfg)
            for wall in (None, 0.1234567):
                assert dump_report(body, wall) == reference_dump(body, wall), cfg["kind"]

    # checks per suite at count=3 (suites without a count run in full); a
    # suite that drops or repeats a check changes its total
    SUITE_TOTALS = {
        "sf_oracle": 3, "sf_refinement": 3, "bott_loops": 26, "winding_props": 11,
        "det_multiplicativity": 3, "maslov_winding": 6, "triple_symmetry": 21, "zeta_det": 6,
        "getzler": 23, "dirac_closed_forms": 14, "sw_identity": 4, "split": 6,
        "dirac_chain": 8, "structural": 145,
    }

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_every_verify_suite(self):
        # bodies as `equiflow verify` builds them, on a few cases per suite;
        # no suite passes a deprecated option
        assert set(self.SUITE_TOTALS) == set(_SUITES) - {"all"}
        for name, fn in _SUITES.items():
            if name == "all":
                continue
            kw = {"count": 3} if "count" in inspect.signature(fn).parameters else {}
            res = SuiteResult(name, 0)
            fn(res, ACCEPTANCE_SEED, **kw)
            assert res.total == self.SUITE_TOTALS[name], name
            body = {"suite": res.name, "seed": ACCEPTANCE_SEED, "passed": res.passed,
                    "total": res.total, "failures": res.failures + ["x: d 1e-3 > tol"],
                    "max_err": res.max_err, "details": res.details}
            assert dump_report(body, 12.5) == reference_dump(body, 12.5), name

    def test_edge_values(self):
        body = {
            "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                       1e16, 1e-7, 0.1, -2.5e300, 1 / 3],
            "ints": [0, -1, 2**53 + 1, -(2**64), 10**30],
            "atoms": [True, False, None],
            "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]], {"a": {}}]},
            "strings": ['say "hi"', "back\\slash", "line\nbreak\ttab", "\u00e9\u03c9\u2013\U0001f600",
                        "", "\x00\x1f", "/"],
            "keys": {"b": 1, "a": 2, "A": 3, "\u00e9": 4, "": 5, "10": 6, "9": 7},
            "complex": [1 + 2j, complex(float("nan"), -0.0)],
            "tuple": (1, (2.0, "3")),
        }
        for wall in (None, 0.0, 3.14159265):
            assert dump_report(body, wall) == reference_dump(body, wall)

    def test_numpy_values(self):
        body = {
            "scalars": [np.float64(0.1), np.float32(0.1), np.int64(-7), np.int32(3),
                        np.bool_(True), np.bool_(False), np.complex128(1 - 1j),
                        np.complex64(0.5j), np.float64("nan")],
            "arrays": [np.array([1.0, -0.0, np.inf]), np.arange(4), np.eye(2, dtype=complex),
                       np.array([1j, 2.0]), np.zeros((0,)), np.array([[True, False]])],
        }
        assert dump_report(body) == reference_dump(body)

    def test_unserializable_raises_type_error(self):
        with pytest.raises(TypeError):
            dump_report({"x": object()})


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

    @pytest.mark.parametrize("output", [{"pdf": "x.pdf"}, ["csv"], "spec.csv"])
    def test_bad_output_before_computing(self, monkeypatch, output):
        def runner(cfg, policy):
            raise AssertionError("the runner ran before 'output' was checked")

        monkeypatch.setitem(cli._RUNNERS, "sf", runner)
        cfg = {"kind": "sf", "generator": {"name": "diag_crossing"}, "output": output}
        with pytest.raises(ConfigInvalid):
            run_config(cfg)

    def test_default_policy_without_tolerances(self, monkeypatch):
        seen = []

        def runner(cfg, policy):
            seen.append(policy)
            return {}, {}

        monkeypatch.setitem(cli._RUNNERS, "sf", runner)
        run_config({"kind": "sf"})
        run_config({"kind": "sf", "tolerances": {"zero_tol": 1e-8}})
        assert seen[0] is cli.DEFAULT
        assert seen[1].zero_tol == 1e-8 and seen[1].eig_tol == cli.DEFAULT.eig_tol


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

    @pytest.mark.parametrize("kind", ["circle_eta", "split"])
    def test_non_square_potential(self, tmp_path, capsys, kind):
        # a typed computation failure (exit 1) naming the shape, no traceback
        cfg = write_cfg(tmp_path, "v.json", {"kind": kind, "generator": {
            "name": "model", "params": {"v": [[[0.25, 0.0], [0.5, 0.0]]]}}})
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation failed: DimensionMismatch: potential V")
        assert "got shape (1, 2)" in err and "Traceback" not in err

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
        # the child imports the package from its `src`, whatever PYTHONPATH holds
        src = os.path.dirname(os.path.dirname(os.path.dirname(inspect.getfile(cli))))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "equiflow.harness.cli", "run", cfg],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert "report" in doc and "wall_time_s" in doc


W3 = np.exp(2j * np.pi / 3)
CIRCLE = {"kind": "circle_eta", "group": {"u_powers": [0, 1]},
          "generator": {"name": "model", "params": {
              "v": [0.25, 0.6], "u": matrix_to_wire(np.diag([W3, 1.0])), "window": [-3, 3]}}}
INTERVAL = {"kind": "interval_eta", "group": {"u_powers": [0, 1]},
            "generator": {"name": "model", "params": {
                "v": [0.2, -0.4], "L": 1.5, "u": matrix_to_wire(np.diag([W3, 1.0])),
                "boundary": {"theta": [1.0, 2.5]}, "window": [-8, 8]}}}


class TestSpectraOnlyForCsv:
    def test_no_listing_without_csv(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum listed without output.csv")

        monkeypatch.setattr(dm, "circle_spectrum", refuse)
        monkeypatch.setattr(dm, "interval_spectrum", refuse)
        for cfg in (CIRCLE, INTERVAL):
            body, spectra = run_config(cfg)
            assert spectra is None
            assert set(body["results"]) == ({"u^0.rot^0", "u^1.rot^0"} if cfg is CIRCLE
                                            else {"u^0", "u^1"})

    def test_body_does_not_depend_on_csv(self):
        for cfg in (CIRCLE, INTERVAL):
            plain, _ = run_config(cfg)
            listed, spectra = run_config({**cfg, "output": {"csv": "s.csv"}})
            assert dump_report(plain) == dump_report(listed)
            assert spectra

    @pytest.mark.parametrize("cfg", [CIRCLE, INTERVAL], ids=["circle", "interval"])
    def test_csv_is_the_direct_listing(self, tmp_path, cfg):
        params = cfg["generator"]["params"]
        V = np.diag(params["v"]).astype(complex)
        u = matrix_from_wire(params["u"])
        if cfg is CIRCLE:
            model = dm.CircleDiracModel(V, u)
            labels = ["u^0.rot^0", "u^1.rot^0"]
            listings = [dm.circle_spectrum(model, params["window"], p) for p in (0, 1)]
        else:
            model = dm.IntervalDiracModel(params["L"], V, u)
            P = dm.theta_projection(np.asarray(params["boundary"]["theta"]), 2)
            labels = ["u^0", "u^1"]
            listings = [dm.interval_spectrum(model, P, params["window"], p) for p in (0, 1)]
        # both powers list the same eigenvalues; only the weights differ
        lams = [[r[0] for r in listing] for listing in listings]
        assert lams[0] == lams[1] and len(lams[0]) > 4
        lines = ["lambda," + ",".join(f"re_weight_{l},im_weight_{l}" for l in labels)]
        for rows in zip(*listings):
            cells = [f"{round(rows[0][0], 10):.12g}"]  # the export's merge key
            for r in rows:
                cells += [f"{complex(r[1]).real:.12g}", f"{complex(r[1]).imag:.12g}"]
            lines.append(",".join(cells))
        expected = "".join(line + "\r\n" for line in lines).encode()

        body, spectra = run_config({**cfg, "output": {"csv": "s.csv"}})
        cli._write_csv_if_asked({**cfg, "output": {"csv": "s.csv"}}, spectra, str(tmp_path))
        assert (tmp_path / "s.csv").read_bytes() == expected


class TestSuitesRegistry:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("definitely_not_registered")

    def test_names_listed(self):
        names = suite_names()
        for expected in ("sf_oracle", "split", "structural", "all"):
            assert expected in names

    def test_bott_loops_follow_the_seed(self):
        # the seeded loops of `bott_loops` differ between seeds, and each
        # repeats a character on rank 2 or more
        loops = {seed: _seeded_bott_loops(seed) for seed in (1, 2)}
        assert [x[0] for x in loops[1]] != [x[0] for x in loops[2]]
        for label, weights, (n_plus, n_minus) in loops[1] + loops[2]:
            assert n_plus == 2 and 1 <= len(weights) <= min(n_minus, 3)
            assert len(weights) == 1 or weights[0] == weights[1]


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
