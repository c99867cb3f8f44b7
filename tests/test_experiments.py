import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from pqbernstein import experiments
from pqbernstein.cli import build_parser, main
from pqbernstein.error_bounds import DEFAULT_RATIO_CAP
from pqbernstein.experiments import (
    CONVERGENCE_FLAGGED,
    ConfigError,
    KOROVKIN_FUNCTIONS,
    custom_schedule,
    run_bounds,
    run_figure,
    run_korovkin,
    run_selftest,
    schedule,
)
from pqbernstein.operator_eval import BasisVariant, SchurerConfig
from pqbernstein.pq_core import PQPair


class TestSchedules:
    def test_classic_pairs_are_valid(self):
        sched = schedule("classic")
        sched.validate([8, 16, 32, 64, 128])
        pq = sched.pair(8)
        assert pq.p == pytest.approx(1 - 1 / 81)
        assert pq.q == pytest.approx(1 - 1 / 9)

    def test_q_only_keeps_p_at_one(self):
        sched = schedule("q-only")
        assert sched.pair(50).p == 1.0
        sched.validate([32, 64, 128])

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            schedule("zeno")

    def test_guard_fires_for_small_max_n(self):
        with pytest.raises(ConfigError):
            schedule("classic").validate([4, 8])  # q = 8/9 is too far from 1

    def test_guard_is_configurable(self):
        schedule("classic").validate([4, 8], guard=0.2)

    @pytest.mark.parametrize("guard", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_guard_rejected(self, guard):
        # NaN and +inf would let every schedule through; no non-finite guard is a bound
        with pytest.raises(ConfigError, match="finite"):
            schedule("classic").validate([4, 8], guard=guard)

    def test_custom_schedule(self):
        sched = custom_schedule([4, 8], [0.97, 0.99], [0.9, 0.95])
        assert sched.pair(8) == PQPair(0.99, 0.95)
        with pytest.raises(ConfigError):
            sched.pair(5)

    def test_validate_returns_each_pair_built_once(self):
        built = []

        def pair_fn(n):
            built.append(n)
            return 1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1)

        sched = experiments.KorovkinSchedule("counted", pair_fn)
        assert sched.validate([8, 128, 16]) == [schedule("classic").pair(n) for n in (8, 128, 16)]
        assert built == [8, 128, 16]
        built.clear()
        result = run_korovkin(sched, [8, 16, 32, 64, 128], grid_size=5)
        assert built == [8, 16, 32, 64, 128]
        assert result.columns["p"] == [schedule("classic").pair(n).p for n in built]

    def test_validate_rejects_an_empty_list(self):
        # max() of no degrees used to raise a bare ValueError
        with pytest.raises(ConfigError, match="at least one degree"):
            schedule("classic").validate([])

    @pytest.mark.parametrize("p, q", [("0.99", "0.9"), (True, 0.9), (0.99, np.array(0.9))])
    def test_custom_passes_parameters_to_pq_pair_unconverted(self, p, q):
        # float() used to turn the string "0.99" and True into parameters
        sched = custom_schedule([8], [p], [q])  # lazy: checked per pair
        with pytest.raises(ConfigError, match="real numbers"):
            sched.pair(8)
        with pytest.raises(ConfigError, match="real numbers"):
            run_korovkin(sched, [8], grid_size=5, guard=0.2)

    def test_custom_rejects_bad_order(self):
        sched = custom_schedule([4], [0.9], [0.95])  # q > p
        with pytest.raises(ConfigError):
            sched.pair(4)

    @pytest.mark.parametrize(
        "n_list, message",
        [([8.5, 16], "integer"), ([True, 16], "integer"), ([8, 8], "distinct"), ([8, 8.0], "distinct")],
    )
    def test_custom_rejects_bad_degrees(self, n_list, message):
        # 8.5 used to become the entry for n = 8, and a repeated n kept its last pair
        with pytest.raises(ConfigError, match=message):
            custom_schedule(n_list, [0.99, 0.999], [0.9, 0.99])

    def test_custom_rejects_misaligned_lists(self):
        with pytest.raises(ConfigError):
            custom_schedule([4, 8], [0.9], [0.8, 0.85])


class TestRunKorovkin:
    def test_small_run_shape_and_flags(self):
        result = run_korovkin(
            schedule("classic"), [8, 16], ell=0, grid_size=21, guard=0.2
        )
        assert result.columns["n"] == [8, 16]
        assert all(len(result.columns[f"sup_err_{name}"]) == 2 for name in KOROVKIN_FUNCTIONS)
        assert result.columns["decreasing_e1"] == [None, True]
        assert result.e0_within_budget

    def test_one_degree_converges_with_null_flags(self):
        result = run_korovkin(schedule("classic"), [8], grid_size=11, guard=0.2)
        assert result.converged
        for name in CONVERGENCE_FLAGGED:
            assert result.columns[f"decreasing_{name}"] == [None]
        (row,) = json.loads(result.to_json_text())["rows"]
        assert row["decreasing"] == {name: None for name in CONVERGENCE_FLAGGED}
        assert result.to_csv_text().splitlines()[1].endswith(",,,")

    @pytest.mark.parametrize("name", ["classic", "q-only"])
    def test_tolerance_floor_keeps_the_e0_gate(self, name):
        result = run_korovkin(schedule(name), [8, 16, 32], quad_tol=2.0**-52, guard=1.0)
        assert result.e0_within_budget

    def test_rejects_non_increasing_n_list(self):
        with pytest.raises(ConfigError):
            run_korovkin(schedule("classic"), [16, 8], guard=0.2)

    @pytest.mark.parametrize(
        "grid_size, message", [(1, ">= 2"), (2.5, "integer"), (True, "integer"), ("11", "integer")]
    )
    def test_rejects_bad_grid(self, grid_size, message):
        # 2.5 used to reach np.linspace as a TypeError, and True to read as size 1
        with pytest.raises(ConfigError, match=f"grid size .*{message}"):
            run_korovkin(schedule("classic"), [8, 16], grid_size=grid_size, guard=0.2)
        with pytest.raises(ConfigError, match=f"grid size .*{message}"):
            run_figure([(0.95, 0.9, 6)], grid_size=grid_size)

    @pytest.mark.parametrize(
        "n_list", [[8.5, 128.7], [8, 16.5], [8, float("nan")], [8, float("inf")], [8, "16"]]
    )
    def test_rejects_non_integral_degrees(self, n_list):
        with pytest.raises(ConfigError, match="integer"):
            run_korovkin(schedule("classic"), n_list, grid_size=11, guard=0.2)

    def test_integral_float_and_numpy_degrees_accepted(self):
        one = run_korovkin(schedule("classic"), [8, 16], grid_size=11, guard=0.2)
        two = run_korovkin(schedule("classic"), [8.0, np.int64(16)], grid_size=11.0, guard=0.2)
        assert two.columns["n"] == [8, 16]
        assert all(type(n) is int for n in two.columns["n"])
        assert one.to_csv_text() == two.to_csv_text()
        assert one.to_json_text() == two.to_json_text()

    def test_csv_header(self):
        result = run_korovkin(schedule("classic"), [8, 16], grid_size=11, guard=0.2)
        header = result.to_csv_text().splitlines()[0].split(",")
        assert header[:3] == ["n", "p", "q"]
        assert "sup_err_f_fig" in header
        assert "decreasing_e2" in header


class TestRunFigure:
    def test_column_contract(self):
        params = [(0.95, 0.9, 6), (0.99, 0.95, 12)]
        table = run_figure(params, ell=0, grid_size=11)
        lines = table.to_csv_text().splitlines()
        header = lines[0].split(",")
        assert len(header) == 2 + len(params)
        assert header[0] == "x"
        assert header[1] == "f"
        assert len(lines) == 1 + 11

    def test_f_column_at_zero(self):
        table = run_figure([(0.95, 0.9, 6)], grid_size=5)
        assert table.columns["f"][0] == pytest.approx(2.0)  # 1 + cos(0)

    def test_near_one_params_converge_toward_f(self):
        table = run_figure(ell=0, grid_size=41)  # default parameter triples
        f = np.array(table.columns["f"])
        sups = [np.abs(np.array(col) - f).max() for col in list(table.columns.values())[2:]]
        assert sups[-1] < sups[0]

    def test_rejects_empty_params(self):
        with pytest.raises(ConfigError):
            run_figure([], grid_size=5)

    def test_default_labels(self):
        table = run_figure(grid_size=5)
        assert list(table.columns) == [
            "x", "f", "K_p0.95_q0.9_n10", "K_p0.98_q0.95_n30", "K_p0.999_q0.99_n100"
        ]

    def test_labels_name_parameters_beyond_six_digits(self):
        # both p print as 0.999999 under :g
        table = run_figure([(0.9999991, 0.99, 10), (0.9999992, 0.99, 10)], grid_size=5)
        labels = list(table.columns)[2:]
        assert labels == ["K_p0.9999991_q0.99_n10", "K_p0.9999992_q0.99_n10"]
        assert list(json.loads(table.to_json_text())["columns"]) == labels

    @pytest.mark.parametrize("n", [6.5, 6.000001, float("nan"), "6"])
    def test_rejects_non_integral_degree(self, n):
        with pytest.raises(ConfigError, match="integer"):
            run_figure([(0.95, 0.9, n)], grid_size=5)

    @pytest.mark.parametrize("p, q", [("0.95", "0.9"), (True, 0.9), (0.95, np.array(0.9))])
    def test_rejects_parameters_that_are_not_real_numbers(self, p, q):
        with pytest.raises(TypeError, match="real numbers"):
            run_figure([(p, q, 10)], grid_size=5)

    def test_integral_float_degree_labels_as_int(self):
        table = run_figure([(0.95, 0.9, 6.0)], grid_size=5)
        assert table.params == ((0.95, 0.9, 6),)
        assert list(table.columns) == ["x", "f", "K_p0.95_q0.9_n6"]

    def test_rejects_duplicate_triples(self):
        with pytest.raises(ConfigError, match="distinct"):
            run_figure([(0.95, 0.9, 6), (0.99, 0.95, 12), (0.95, 0.9, 6.0)], grid_size=5)

    def test_byte_identical_reruns(self):
        a = run_figure(ell=2, grid_size=31)
        b = run_figure(ell=2, grid_size=31)
        assert a.to_csv_text() == b.to_csv_text()
        assert a.to_json_text() == b.to_json_text()


class TestRunBounds:
    @pytest.mark.parametrize(
        "theorem, function_name, message",
        [("t35", "f_fig", "unknown theorem"), ("t33", "f_fig", "no built-in Lipschitz data")],
    )
    def test_bad_arguments_rejected_before_any_work(
        self, theorem, function_name, message, monkeypatch
    ):
        def no_work(*args):
            raise AssertionError("built the operator's domain for arguments it rejects")

        monkeypatch.setattr(experiments, "bound_domain", no_work)
        with pytest.raises(ConfigError, match=message):
            run_bounds(theorem, SchurerConfig(n=4), PQPair(0.9, 0.8), function_name)

    @pytest.mark.parametrize("theorem", ["t32", "t34"])
    def test_lipschitz_data_rejected_outside_t33(self, theorem):
        with pytest.raises(ConfigError, match="t33 only"):
            run_bounds(theorem, SchurerConfig(n=4), PQPair(0.9, 0.8), lipschitz=(5.0, 1.0))

    @pytest.mark.parametrize("theorem", ["t32", "t33"])
    @pytest.mark.parametrize("cap", [50.0, -5.0])
    def test_ratio_cap_rejected_outside_t34(self, theorem, cap):
        with pytest.raises(ConfigError, match="t34 only"):
            run_bounds(theorem, SchurerConfig(n=4), PQPair(0.9, 0.8), "e1", ratio_cap=cap)

    def test_t34_ratio_cap_defaults_to_the_module_constant(self):
        config, pq = SchurerConfig(n=4), PQPair(0.9, 0.8)
        default = run_bounds("t34", config, pq, grid_size=5)
        assert default.extras["ratio_cap"] == DEFAULT_RATIO_CAP
        capped = run_bounds("t34", config, pq, grid_size=5, ratio_cap=1e-6)
        assert capped.extras["ratio_cap"] == 1e-6

    def test_lipschitz_data_used_by_t33(self):
        rep = run_bounds(
            "t33", SchurerConfig(n=4), PQPair(0.9, 0.8), "e1", grid_size=11, lipschitz=(5.0, 1.0)
        )
        assert rep.extras == {"lipschitz_m": 5.0, "lipschitz_alpha": 1.0}


class TestSelftest:
    def test_fresh_build_passes(self):
        result = run_selftest()
        assert result.all_passed
        assert "PASS" in result.matrix_text()

    def test_printed_basis_partition_fails_as_designed(self):
        result = run_selftest(basis_variant=BasisVariant.AS_PRINTED)
        assert not result.all_passed
        failed = {c.name for c in result.checks if not c.passed}
        assert "partition-of-unity[printed]" in failed
        # quadrature and the p=1 reduction are basis-independent
        passed = {c.name for c in result.checks if c.passed}
        assert "quadrature-monomials" in passed
        assert "p1-reduction-vs-reference" in passed


class TestCLI:
    def test_run_defaults_are_the_config_defaults(self):
        want = {
            "ell": SchurerConfig.ell,
            "grid_size": experiments.DEFAULT_GRID_SIZE,
            "quad_tol": SchurerConfig.quad_tol,
            "basis_variant": SchurerConfig.basis_variant,
        }
        runs = (run_korovkin, run_figure, experiments.run_moments, run_bounds, run_selftest)
        for run in runs:
            params = inspect.signature(run).parameters
            got = {name: params[name].default for name in want if name in params}
            assert got == {name: want[name] for name in got}
        parser = build_parser()
        for argv in (["korovkin"], ["figure"], ["moments", "--n", "3"],
                     ["bounds", "--theorem", "t32", "--n", "3"]):
            args = parser.parse_args(argv)
            got = (args.ell, args.grid, args.tol, BasisVariant(args.basis))
            assert got == tuple(want.values())
        assert BasisVariant(parser.parse_args(["selftest"]).basis) is want["basis_variant"]

    def test_selftest_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
        assert "selftest: 5 checks, 0 failures" in capsys.readouterr().out

    def test_selftest_printed_exit_one(self, capsys):
        assert main(["selftest", "--basis", "printed"]) == 1
        capsys.readouterr()

    def test_korovkin_writes_csv(self, tmp_path, capsys):
        code = main(
            ["korovkin", "--n", "8,16", "--grid", "11", "--guard", "0.2",
             "--out", str(tmp_path / "korovkin")]
        )
        capsys.readouterr()
        assert code == 0
        text = (tmp_path / "korovkin.csv").read_text()
        assert text.startswith("n,p,q,")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_korovkin_guard_violation_exit_two(self, capsys):
        assert main(["korovkin", "--n", "4,8"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--p-list", "0.5,0.4", "--q-list", "0.1,0.2"],
            ["--schedule", "q-only", "--p-list", "0.5"],
            ["--schedule", "classic", "--q-list", "0.1,0.2"],
        ],
    )
    def test_korovkin_lists_without_custom_schedule_exit_two(self, extra, tmp_path, capsys):
        # a built-in schedule would silently ignore the lists
        argv = ["korovkin", "--n", "8,16", "--grid", "5", "--guard", "0.2",
                "--out", str(tmp_path / "k")]
        assert main(argv + extra) == 2
        assert "--schedule custom" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_moments_writes_both_formats(self, tmp_path, capsys):
        base = tmp_path / "mom"
        code = main(
            ["moments", "--n", "4", "--ell", "1", "--p", "0.9", "--q", "0.8",
             "--grid", "5", "--out", str(base)]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "mom.csv").exists()
        doc = json.loads((tmp_path / "mom.json").read_text())
        assert doc["kind"] == "moment_report"
        assert doc["closed_form_discrepancy_flag"] is True

    def test_moments_requires_pq(self, capsys):
        assert main(["moments", "--n", "4", "--grid", "5"]) == 2
        capsys.readouterr()

    def test_bounds_t32_exit_zero(self, tmp_path, capsys):
        base = tmp_path / "b32"
        code = main(
            ["bounds", "--theorem", "t32", "--n", "10", "--p", "0.95", "--q", "0.9",
             "--function", "e1", "--grid", "11", "--out", str(base)]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "b32.csv").exists()
        assert (tmp_path / "b32.json").exists()

    def test_bounds_t33_not_lipschitz_exit_two(self, capsys):
        # e2 is not Lipschitz(1, 1) on the extended domain
        code = main(
            ["bounds", "--theorem", "t33", "--n", "10", "--p", "0.95", "--q", "0.9",
             "--function", "e2", "--lip-m", "1.0", "--lip-alpha", "1.0",
             "--grid", "11"]
        )
        assert code == 2
        assert "not Lipschitz" in capsys.readouterr().err

    def test_bounds_degenerate_rows_give_strict_json(self, tmp_path, capsys):
        # e1 at p = 0.9: where the transcribed alpha_n meets x, both moduli
        # vanish while the error does not, so the ratio is undefined there
        base = tmp_path / "B"
        code = main(
            ["bounds", "--theorem", "t34", "--function", "e1", "--n", "10", "--ell", "1",
             "--p", "0.9", "--q", "0.8", "--out", str(base)]
        )
        capsys.readouterr()
        assert code == 1

        def reject(token):
            raise ValueError(f"non-finite {token} in JSON")

        doc = json.loads((tmp_path / "B.json").read_text(), parse_constant=reject)
        assert doc["extras"]["degenerate_rows"] >= 1
        undefined = [row for row in doc["rows"] if "ratio_t34" not in row]
        assert len(undefined) == doc["extras"]["degenerate_rows"]
        assert all(row["passed"] is False for row in undefined)
        lines = (tmp_path / "B.csv").read_text().splitlines()
        ratio_at = lines[0].split(",").index("ratio_t34")
        cells = [line.split(",")[ratio_at] for line in lines[1:]]
        assert cells.count("") == len(undefined)

    @pytest.mark.parametrize(
        "theorem, lipschitz",
        [
            ("t33", ["--lip-m", "0.001"]),
            ("t33", ["--lip-alpha", "0.5"]),
            ("t32", ["--lip-m", "1.0", "--lip-alpha", "1.0"]),
            ("t34", ["--lip-m", "1.0"]),
        ],
    )
    def test_bounds_lipschitz_flags_need_t33_and_both(self, theorem, lipschitz, capsys):
        code = main(
            ["bounds", "--theorem", theorem, "--function", "e1", "--n", "10",
             "--p", "0.95", "--q", "0.9", "--grid", "11", *lipschitz]
        )
        assert code == 2
        assert "--lip-" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--out", "x"], ["--grid", "5"], ["--ell", "1"], ["--tol", "1e-8"]]
    )
    def test_selftest_takes_only_basis(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", *flag])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_format_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "--params", "0.95:0.9:6", "--format", "json"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_figure_stdout(self, capsys):
        assert main(["figure", "--params", "0.95:0.9:6", "--grid", "5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "x,f,K_p0.95_q0.9_n6"

    def test_figure_duplicate_triples_exit_two(self, tmp_path, capsys):
        out = tmp_path / "fig"
        argv = ["figure", "--params", "0.95:0.9:6,0.950:0.90:6", "--grid", "5", "--out", str(out)]
        assert main(argv) == 2
        assert "distinct" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_figure_json_format(self, tmp_path, capsys):
        code = main(
            ["figure", "--params", "0.95:0.9:6", "--grid", "5",
             "--out", str(tmp_path / "fig")]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads((tmp_path / "fig.json").read_text())["kind"] == "figure_data"

    def test_truncation_infeasible_exit_three(self, capsys):
        code = main(
            ["figure", "--params", "1.0:0.9999999:4", "--grid", "3", "--tol", "1e-12"]
        )
        assert code == 3
        assert "truncation" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ["korovkin", "--n", "64,1234"],
            ["bounds", "--theorem", "t32", "--n", "1234", "--p", "1.0", "--q", "0.99919"],
        ],
    )
    def test_numerical_range_exit_three(self, argv, tmp_path, capsys):
        # the basis coefficients leave the double range at N = 1234 (classic,
        # and p = 1 with q = 1 - 1/1235 rounded); nothing is written
        out = tmp_path / "report"
        assert main(argv + ["--out", str(out)]) == 3
        assert "NumericalRangeError" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # f_fig's overflow, then the error
    def test_non_finite_means_exit_three(self, tmp_path, capsys):
        # the arguments reach 8.1e153, where f_fig's t^2 overflows and its
        # means are NaN; this exited 2 for a NaN in the report table
        out = tmp_path / "report"
        argv = ["bounds", "--theorem", "t32", "--function", "f_fig", "--n", "979", "--ell", "3",
                "--tol", "1.1711911695041253e-4", "--p", "0.6961011500744568",
                "--q", "0.32288160198390276", "--out", str(out)]
        assert main(argv) == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "NumericalRangeError" in errors[0] and "f_fig" in errors[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["korovkin", "--n", "64,128,256"],
            ["bounds", "--theorem", "t32", "--n", "200", "--p", "0.9", "--q", "0.8"],
        ],
    )
    def test_former_overflow_inputs_succeed(self, argv, capsys):
        # both exited 3 while the coefficients came from a (p,q)-factorial ratio
        assert main(argv + ["--grid", "21"]) == 0
        assert "nan" not in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("cap", ["nan", "inf", "-1", "0"])
    def test_bad_ratio_cap_exits_two(self, cap, capsys):
        code = main(
            ["bounds", "--theorem", "t34", "--n", "5", "--p", "0.9", "--q", "0.8",
             "--ratio-cap", cap]
        )
        assert code == 2
        assert "ratio_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["t32", "t33"])
    def test_ratio_cap_outside_t34_exits_two(self, theorem, capsys):
        code = main(
            ["bounds", "--theorem", theorem, "--function", "e1", "--n", "4", "--p", "0.9",
             "--q", "0.8", "--grid", "3", "--ratio-cap", "-5"]
        )
        assert code == 2
        assert "t34 only" in capsys.readouterr().err

    @pytest.mark.skipif(
        resource is None or not sys.platform.startswith("linux"),
        reason="needs resource.RLIMIT_AS and /proc/self/status",
    )
    def test_out_of_memory_exits_three(self):
        # the basis matrix of a 3,000,000-point grid at n = 128 is 2.86 GiB; an
        # address-space limit 1 GiB above the child's size after import makes
        # that allocation fail at once, so the test never holds the memory
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import resource, sys\n"
            "from pqbernstein.cli import main\n"
            "with open('/proc/self/status') as status:\n"
            "    size = next(int(l.split()[1]) for l in status if l.startswith('VmSize:'))\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size * 1024 + 2**30, hard))\n"
            "sys.exit(main(['figure', '--params', '0.999:0.99:128', '--grid', '3000000']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: out of memory: ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("guard", ["nan", "inf"])
    def test_non_finite_guard_exits_two(self, guard, capsys):
        assert main(["korovkin", "--n", "8,16", "--guard", guard]) == 2
        assert "guard must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "5", "--p", "0.9", "--q", "0.8"],
            ["bounds", "--theorem", "t32", "--n", "5", "--p", "0.9", "--q", "0.8"],
            ["figure", "--params", "0.95:0.9:6"],
            ["korovkin", "--n", "8,16", "--guard", "0.2"],
        ],
    )
    def test_infinite_tol_exits_two(self, argv, tol, capsys):
        # "1e400" parses to inf; no traceback, a configuration error
        assert main([*argv, "--grid", "5", "--tol", tol]) == 2
        assert "finite" in capsys.readouterr().err

    def test_tolerance_below_float_resolution_exits_two(self, capsys):
        # accepted once, then reported a correct operator's e0 as over budget
        assert main(["korovkin", "--n", "8,16,32", "--tol", "1e-18", "--guard", "1"]) == 2
        assert "2**-52" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["korovkin", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_param_triple_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "--params", "0.95-0.9-6"])
        assert excinfo.value.code == 2
