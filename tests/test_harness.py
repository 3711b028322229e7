import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symmflow import cli, hyperbolic
from symmflow.cli import main
from symmflow.errors import IoFailure, ReferenceUnavailable
from symmflow.harness import (
    ConvergenceReport,
    converge,
    emit_csv,
    emit_report,
    read_csv,
    run_problem,
)
from symmflow.problems import ProblemSpec, build_problem, problem_names


class TestProblems:
    def test_registry_names(self):
        names = problem_names()
        assert names["sphere"] == ["rigid_body", "rotation"]
        assert names["hyperbolic"] == ["lorentz_linear"]
        assert names["spd"] == ["constant_field", "double_bracket"]

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            build_problem("sphere", "pendulum")

    def test_initial_points_on_manifold(self):
        for space, names in problem_names().items():
            for name in names:
                problem = build_problem(space, name)
                assert problem.spec.space == space

    def test_bad_initial_point_rejected(self):
        with pytest.raises(ValueError):
            build_problem("sphere", "rigid_body", y0=(0.6, 0.0, 0.9))

    def test_non_finite_initial_point_rejected(self):
        with pytest.raises(ValueError):
            build_problem("sphere", "rigid_body", y0=(float("nan"), 0.0, 1.0))

    @pytest.mark.parametrize(
        "space, y0",
        [
            ("hyperbolic", np.array([0.0, 0.0, -1.0])),  # the lower sheet
            ("spd", np.diag([1.0, -1.0])),  # symmetric, not positive definite
            ("sphere", np.array([0.6, 0.0, 0.8 + 1e-11])),  # past 1e-12 of y.y
        ],
    )
    def test_spec_takes_the_space_check(self, space, y0):
        # A spec's y0 passes the same `check_point` as `integrate`'s.
        with pytest.raises(ValueError, match="not a point of"):
            ProblemSpec(space, "any", len(y0) - 1, {}, y0, 1.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("torus", "any", 2, {}, np.array([0.6, 0.0, 0.8]), 1.0), "unknown space"),
            (("sphere", "any", 2, {}, np.array([0.6, 0.0, 0.8]), 0.0), "horizon T"),
            (("sphere", "any", 2, {}, np.array([0.6, 0.0, 0.8]), math.inf), "horizon T"),
        ],
    )
    def test_spec_validation(self, args, message):
        with pytest.raises(ValueError, match=message):
            ProblemSpec(*args)

    @pytest.mark.parametrize(
        "name, options, message",
        [
            ("rigid_body", {"dim": 3}, "2-sphere"),
            ("rigid_body", {"inertia": (1.0, -2.0, 3.0)}, "inertia"),
            ("rigid_body", {"inertia": (1.0, 2.0)}, "inertia"),
            ("rotation", {"dim": 3}, "2-sphere"),
            ("rotation", {"axis": (0.0, 1.0)}, "axis"),
        ],
    )
    def test_sphere_problem_validation(self, name, options, message):
        with pytest.raises(ValueError, match=message):
            build_problem("sphere", name, **options)

    def test_spec_measures_the_residual_against_the_scale(self):
        # At rapidity 6, <y, y> - 1 rounds to 7e-12, within 1e-12 of y.y.
        y0 = hyperbolic.random_point(np.random.default_rng(3), 6, scale=6.0)
        assert ProblemSpec("hyperbolic", "any", 6, {}, y0, 1.0).y0 is y0

    def test_seed_controls_random_problems(self):
        a = build_problem("spd", "double_bracket", seed=1)
        b = build_problem("spd", "double_bracket", seed=1)
        c = build_problem("spd", "double_bracket", seed=2)
        assert np.array_equal(a.spec.y0, b.spec.y0)
        assert not np.array_equal(a.spec.y0, c.spec.y0)

    def test_rigid_body_field_is_tangent(self):
        problem = build_problem("sphere", "rigid_body")
        y = problem.spec.y0
        assert abs(float(problem.field(y) @ y)) < 1e-14

    @pytest.mark.parametrize("name", ["rigid_body", "rotation"])
    def test_sphere_fields_match_np_cross(self, name):
        problem = build_problem("sphere", name)
        if name == "rigid_body":
            inv_inertia = 1.0 / np.array(problem.spec.params["inertia"])
            reference = lambda y: np.cross(y, inv_inertia * y)
        else:
            axis = np.array(problem.spec.params["axis"])
            reference = lambda y: np.cross(axis, y)
        rng = np.random.default_rng(8)
        for scale in (1e-8, 1.0, 1e8):
            for y in scale * rng.standard_normal((500, 3)):
                assert np.array_equal(problem.field(y), reference(y))

    def test_lorentz_field_is_tangent(self):
        from symmflow.linalg import minkowski

        problem = build_problem("hyperbolic", "lorentz_linear")
        y = problem.spec.y0
        assert abs(minkowski(problem.field(y), y)) < 1e-14


class TestRunProblem:
    def test_three_step_csv_shape(self, tmp_path):
        out = tmp_path / "traj.csv"
        problem = build_problem("sphere", "rigid_body", T=0.3)
        run_problem(problem, "rk4", 0.1, out=str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,y0,y1,y2"
        assert len(lines) == 1 + 4  # header + initial point + 3 steps
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "traj.csv"
        problem = build_problem("sphere", "rigid_body", T=0.5)
        trajectory, _, _ = run_problem(problem, "rk4", 0.1, out=str(out))
        times, values = read_csv(out)
        assert np.array_equal(values, np.array(trajectory))
        assert np.array_equal(times, 0.1 * np.arange(6))

    def test_spd_header_row_major(self, tmp_path):
        out = tmp_path / "traj.csv"
        problem = build_problem("spd", "double_bracket", T=0.1)
        trajectory, _, _ = run_problem(problem, "rk4", 0.05, out=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "t,m00,m01,m02,m10,m11,m12,m20,m21,m22"
        _, values = read_csv(out)
        assert np.array_equal(values[0], trajectory[0].ravel())

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            problem = build_problem("spd", "double_bracket", T=0.2, seed=9)
            run_problem(problem, "rk4", 0.05, out=str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_warns_when_h_does_not_divide(self):
        problem = build_problem("sphere", "rigid_body", T=1.0)
        with pytest.warns(UserWarning):
            run_problem(problem, "rk4", 0.3)

    @pytest.mark.parametrize("h", [-0.1, 0.0, math.nan, math.inf])
    def test_bad_step_size_rejected_before_the_first_step(self, h):
        problem = build_problem("sphere", "rotation", T=1.0)
        with pytest.raises(ValueError, match="step size h"):
            run_problem(problem, "rk4", h)

    def test_summary_contents(self):
        problem = build_problem("sphere", "rotation", T=1.0)
        _, _, summary = run_problem(problem, "rk4", 0.05)
        assert summary["n_steps"] == 20
        assert summary["max_residual"] <= 1e-12
        assert "axis_component" in summary["conserved_drift"]
        assert summary["endpoint_error"] < 1e-5

    def test_diagnostics_summary_has_the_worst_tangency_defect(self):
        problem = build_problem("sphere", "rigid_body", T=1.0)
        _, records, summary = run_problem(problem, "rk4", 0.1, diagnostics=True)
        assert summary["max_tangency_defect"] == max(r.tangency_defect for r in records)
        assert summary["max_tangency_defect"] <= 1e-15
        _, _, summary = run_problem(problem, "rk4", 0.1)
        assert "max_tangency_defect" not in summary

    def test_empty_trajectory_needs_a_header(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            emit_csv([], str(tmp_path / "empty.csv"), 0.1)

    def test_unwritable_or_unreadable_paths_raise_io_failure(self, tmp_path):
        missing = tmp_path / "missing" / "out.csv"
        problem = build_problem("sphere", "rotation", T=1.0)
        with pytest.raises(IoFailure, match="could not write trajectory"):
            run_problem(problem, "rk4", 0.5, out=str(missing))
        with pytest.raises(IoFailure, match="could not read"):
            read_csv(str(missing))
        report = converge(problem, "rk4", [0.1, 0.05])
        with pytest.raises(IoFailure, match="could not write report"):
            emit_report(report, str(missing))

    def test_empty_trajectory_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([], str(out), 0.1, header="t,y0,y1,y2")
        assert out.read_text() == "t,y0,y1,y2\n"

    def test_rigid_body_energy_drift_is_fourth_order(self):
        drifts = []
        for h in (0.02, 0.01):
            problem = build_problem("sphere", "rigid_body", T=2.0)
            _, _, summary = run_problem(problem, "rk4", h)
            drifts.append(summary["conserved_drift"]["energy"])
        assert 10.0 <= drifts[0] / drifts[1] <= 22.0

    def test_double_bracket_eigenvalue_drift_is_fourth_order(self):
        drifts = []
        for h in (0.02, 0.01):
            problem = build_problem("spd", "double_bracket", T=1.0)
            trajectory, _, _ = run_problem(problem, "rk4", h)
            drifts.append(
                float(
                    np.max(
                        np.abs(
                            np.linalg.eigvalsh(trajectory[-1])
                            - np.linalg.eigvalsh(trajectory[0])
                        )
                    )
                )
            )
        assert 10.0 <= drifts[0] / drifts[1] <= 22.0

    def test_double_bracket_n30_stays_spd_and_near_isospectral(self):
        problem = build_problem("spd", "double_bracket", dim=30, T=0.2)
        trajectory, records, _ = run_problem(problem, "rk4", 0.01)
        assert len(records) == 20
        assert max(r.residual for r in records) <= 1e-12
        assert min(np.linalg.eigvalsh(p).min() for p in trajectory) > 0.0
        before = np.linalg.eigvalsh(trajectory[0])
        after = np.linalg.eigvalsh(trajectory[-1])
        # rk4 is not isospectral: the drift (1.07e-3 here) is its truncation
        # error, falling ~20x per halving of h, so the bound is set above it.
        assert np.max(np.abs(after - before)) <= 2e-3 * np.max(before)


class TestConverge:
    H_GRID = [0.1, 0.05, 0.025, 0.0125]

    def test_rigid_body_rk4_order_four(self):
        problem = build_problem("sphere", "rigid_body", T=1.0)
        report = converge(problem, "rk4", self.H_GRID, dexpinv_terms=1)
        assert 3.8 <= report.fitted_order <= 4.2

    def test_no_correction_drops_to_order_three(self):
        problem = build_problem("sphere", "rigid_body", T=1.0)
        report = converge(problem, "rk4", self.H_GRID, dexpinv_terms=0)
        assert 2.7 <= report.fitted_order <= 3.3

    def test_euler_baseline(self):
        problem = build_problem("sphere", "rigid_body", T=1.0)
        report = converge(problem, "euler", self.H_GRID)
        assert 0.8 <= report.fitted_order <= 1.2

    def test_last_pair_close_to_fit(self):
        problem = build_problem("sphere", "rigid_body", T=1.0)
        report = converge(problem, "rk4", self.H_GRID)
        assert abs(report.pair_orders[-1] - report.fitted_order) <= 0.3

    def test_exact_reference_used_when_available(self):
        problem = build_problem("sphere", "rotation", T=1.0)
        report = converge(problem, "rk4", [0.1, 0.05])
        assert 13.0 <= 2.0 ** report.pair_orders[0] <= 19.0

    def test_single_h_rejected(self):
        problem = build_problem("sphere", "rotation", T=1.0)
        with pytest.raises(ReferenceUnavailable):
            converge(problem, "rk4", [0.1])

    def test_non_dividing_h_rejected(self):
        problem = build_problem("sphere", "rotation", T=1.0)
        with pytest.raises(ValueError):
            converge(problem, "rk4", [0.3, 0.15])

    @pytest.mark.parametrize("bad", [-0.05, 0.0, math.nan, math.inf])
    def test_bad_step_size_rejected(self, bad):
        problem = build_problem("sphere", "rotation", T=1.0)
        with pytest.raises(ValueError, match="step size h"):
            converge(problem, "rk4", [0.1, 0.05, bad])

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ConvergenceReport(((0.1, 1e-3), (0.2, 1e-4)), (1.0,), 1.0)
        with pytest.raises(ValueError):
            ConvergenceReport(((0.2, 1e-3), (0.1, -1e-4)), (1.0,), 1.0)

    def test_constant_field_exact_reference_orders(self):
        problem = build_problem("spd", "constant_field", T=1.0)
        report = converge(problem, "rk4", [0.1, 0.05, 0.025])
        assert 3.7 <= report.fitted_order <= 4.3
        report = converge(problem, "heun2", [0.1, 0.05, 0.025])
        assert 1.8 <= report.fitted_order <= 2.2

    def test_nondefault_spd_dimension(self):
        problem = build_problem("spd", "double_bracket", dim=4, T=0.5)
        _, _, summary = run_problem(problem, "rk4", 0.05)
        assert summary["max_residual"] <= 1e-12

    @pytest.mark.parametrize(
        "space,name",
        [("sphere", "rotation"), ("hyperbolic", "lorentz_linear"), ("spd", "constant_field")],
    )
    def test_implicit_midpoint_end_to_end(self, space, name):
        problem = build_problem(space, name, T=1.0)
        _, _, summary = run_problem(problem, "implicit_midpoint", 0.05)
        assert summary["max_residual"] <= 1e-10
        assert summary["endpoint_error"] <= 5e-4

    def test_emit_report_schema(self, tmp_path):
        out = tmp_path / "conv.csv"
        problem = build_problem("sphere", "rotation", T=1.0)
        report = converge(problem, "rk4", [0.1, 0.05])
        emit_report(report, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h,error,pair_order"
        assert lines[1].endswith(",nan")
        assert lines[-1].startswith("# fitted_order=")
        parsed = float(lines[-1].split("=")[1])
        assert abs(parsed - report.fitted_order) <= 1e-6


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "run",
                "--space", "sphere",
                "--problem", "rigid_body",
                "--method", "rk4",
                "--h", "0.1",
                "--T", "1",
                "--dexpinv-terms", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "max manifold residual" in capsys.readouterr().out

    def test_converge_subcommand(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "converge",
                "--space", "sphere",
                "--problem", "rotation",
                "--method", "rk4",
                "--h-list", "0.1,0.05",
                "--T", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "fitted order" in capsys.readouterr().out
        assert out.read_text().startswith("h,error,pair_order")

    def test_check_subcommand(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out and "FAIL" not in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "space": "sphere",
                    "problem": "rigid_body",
                    "method": "euler",
                    "h": 0.1,
                    "T": 0.5,
                }
            )
        )
        code = main(["run", "--config", str(config), "--method", "rk4"])
        assert code == 0
        assert "rk4" in capsys.readouterr().out

    def test_run_prints_the_tangency_defect_under_diagnostics(self, capsys):
        assert main(RUN_ROTATION + ["--diagnostics"]) == 0
        assert "max tangency defect: " in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_unloadable_config_prints_one_error_line(self, content, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        assert main(RUN_ROTATION + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config {path}" if content == "[1, 2]"
                                       else f"error: could not load config {path}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_missing_required_flag_fails(self, capsys):
        code = main(["run", "--space", "sphere"])
        assert code == 1
        assert "missing required" in capsys.readouterr().err

    def test_step_failure_reports_step_index(self, capsys):
        code = main(
            [
                "run",
                "--space", "sphere",
                "--problem", "rigid_body",
                "--h", "80",
                "--T", "160",
            ]
        )
        assert code == 1
        assert "at step" in capsys.readouterr().err


RUN_ROTATION = ["run", "--space", "sphere", "--problem", "rotation", "--h", "0.1"]
RUN_LORENTZ = ["run", "--space", "hyperbolic", "--problem", "lorentz_linear", "--h", "0.1"]
CONVERGE_ROTATION = ["converge", "--space", "sphere", "--problem", "rotation"]

# JSON values by kind, and the kinds each config key accepts (those of its
# flag's type); every other kind must be refused.
JSON_KINDS = {
    "string": st.text(max_size=4),
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-5, 5),
    "float": st.floats(-10.0, 10.0),
    "list": st.lists(st.one_of(st.none(), st.booleans(), st.text(max_size=2)), min_size=1),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
CONFIG_KINDS = {
    "space": {"string"},
    "problem": {"string"},
    "method": {"string"},
    "out": {"string"},
    "dim": {"integer"},
    "seed": {"integer"},
    "T": {"integer", "float"},
    "h": {"integer", "float"},
    "diagnostics": {"boolean"},
    "dexpinv_terms": {"string", "null", "integer"},
    "h_list": {"string", "list"},
}


class TestCliInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--space", "sphere", "--problem", "nope", "--h", "0.1"],
            ["run", "--space", "sphere", "--problem", "rigid_body", "--dim", "3", "--h", "0.1"],
            RUN_ROTATION + ["--T", "-1"],
            RUN_ROTATION[:-1] + ["-0.1"],
            RUN_ROTATION[:-1] + ["0"],
            RUN_ROTATION[:-1] + ["nan"],
            ["converge", "--space", "sphere", "--problem", "rotation", "--h-list", "0.3,0.1"],
            ["converge", "--space", "sphere", "--problem", "rotation", "--h-list", "0.1,x"],
            RUN_ROTATION[:-1] + ["1e-320"],
        ],
    )
    def test_bad_input_prints_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("raw", ["2.7", "-1", "x", "", "1e3", "\u00b2"])
    def test_bad_dexpinv_terms_flag(self, raw, capsys):
        assert main(RUN_ROTATION + ["--dexpinv-terms", raw]) == 1
        assert capsys.readouterr().err.startswith("error: dexpinv_terms")

    @pytest.mark.parametrize("raw", [2.7, True, False, -1, "-1", "x", [2]])
    def test_bad_dexpinv_terms_config(self, raw, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dexpinv_terms": raw}))
        assert main(RUN_ROTATION + ["--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: dexpinv_terms")

    @pytest.mark.parametrize(
        "form, raw, terms",
        [
            ("flag", "auto", None),
            ("flag", "0", 0),
            ("flag", "3", 3),
            ("config", "auto", None),
            ("config", None, None),
            ("config", "3", 3),
            ("config", 3, 3),
        ],
    )
    def test_dexpinv_terms_reach_the_run(self, form, raw, terms, tmp_path, monkeypatch):
        seen = []
        real = cli.run_problem
        monkeypatch.setattr(
            cli, "run_problem", lambda *a, **k: seen.append(k["dexpinv_terms"]) or real(*a, **k)
        )
        if form == "flag":
            argv = RUN_ROTATION + ["--dexpinv-terms", raw]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"dexpinv_terms": raw}))
            argv = RUN_ROTATION + ["--config", str(config)]
        assert main(argv) == 0
        assert seen == [terms]

    @pytest.mark.parametrize(
        "argv, config",
        [
            (RUN_LORENTZ, {"T": "1"}),
            (RUN_LORENTZ, {"T": None}),
            (RUN_LORENTZ, {"seed": "x"}),
            (RUN_LORENTZ, {"dim": "3"}),
            (RUN_LORENTZ, {"diagnostics": "no"}),
            (RUN_LORENTZ, {"out": 5}),
            (RUN_LORENTZ, {"dexpinv-term": 3}),
            (RUN_LORENTZ, {"h_list": "0.1"}),
            (CONVERGE_ROTATION, {"h_list": [0.1, None]}),
            (CONVERGE_ROTATION + ["--h-list", "0.1"], {"h": 0.1}),
        ],
    )
    def test_bad_config_prints_one_error_line(self, argv, config, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(argv + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["run", "--space", "spd", "--problem", "double_bracket", "--h", "0.1",
              "--dim", "-2"], None, "dim"),
            (RUN_ROTATION + ["--seed", "-1"], None, "seed"),
            (RUN_LORENTZ, {"dim": -2}, "dim"),
            (RUN_ROTATION, {"seed": -1}, "seed"),
            (CONVERGE_ROTATION + ["--h-list", "0.1,0.05"], {"seed": -1}, "seed"),
            (["check", "--seed", "-1"], None, "seed"),
        ],
    )
    def test_negative_dim_or_seed_is_named(self, argv, config, key, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key} must be a non-negative integer: -")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_wrongly_typed_config_values_are_refused(self, data, tmp_path_factory):
        key = data.draw(st.sampled_from(sorted(CONFIG_KINDS)))
        kind = data.draw(st.sampled_from(sorted(set(JSON_KINDS) - CONFIG_KINDS[key])))
        value = data.draw(JSON_KINDS[kind])
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps({key: value}))
        argv = CONVERGE_ROTATION if key == "h_list" else RUN_ROTATION
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--config", str(path)]) == 1
        assert err.getvalue().startswith(f"error: {key}")
        assert err.getvalue().count("\n") == 1
