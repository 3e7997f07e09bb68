"""Registry behaviour, result schema, sequence export, and the CLI surface."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import rational_series
from sptlab import bailey, cli, identities, partitions, theta
from sptlab.series import lambert
from test_prefix_cache import MEMOIZED

ORDER = 24
BOUND = 14


@pytest.fixture(scope="module")
def full_results():
    return identities.run_all(ORDER, BOUND)


class TestRegistry:
    def test_has_22_unique_entries(self):
        metas = identities.registry()
        assert len(metas) == 22
        assert len({m.id for m in metas}) == 22
        assert [m.id for m in metas] == [f"I{k}" for k in range(1, 23)]

    def test_descriptions_are_informative(self):
        for m in identities.registry():
            assert len(m.description) > 10

    def test_registered_defaults(self):
        by_id = {m.id: m for m in identities.registry()}
        assert by_id["I4"].order == 40
        assert by_id["I5"].order == 40
        assert by_id["I6"].order == 30
        assert by_id["I1"].order == identities.DEFAULT_ORDER


class TestRun:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            identities.run("I23")

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            identities.run("I1", 9)
        with pytest.raises(ValueError):
            identities.run("I1", 20, 0)

    def test_oracle_bound_cap(self):
        cap = identities.MAX_ORACLE_BOUND
        with pytest.raises(ValueError, match=f"oracle bound must be at most {cap}"):
            identities.run("I11", 12, cap + 1)
        assert identities.run("I1", 12, cap).status == "pass"  # I1 reads no oracle

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lambert(1, -1),
            lambda: theta.a_lambert(-1),
            lambda: bailey.lemma_sides(bailey.slater_j1_window(5), -1),
            lambda: bailey.derivative_identity_sides(bailey.slater_j1_window(5), -1),
        ],
        ids=["lambert", "a_lambert", "lemma_sides", "derivative_identity_sides"],
    )
    def test_negative_order_rejected(self, call):
        # not an empty series, an IndexError, or sides read off the last row
        with pytest.raises(ValueError, match="order must be non-negative"):
            call()

    @pytest.mark.parametrize("order, bound", [(10.5, 12), (12, 12.0)])
    def test_non_int_order_or_bound_rejected(self, order, bound):
        # raised before any check runs, not reported as a check error
        with pytest.raises(TypeError, match="order and oracle bound must be ints"):
            identities.run("I1", order, bound)

    def test_order_cap(self):
        cap = identities.MAX_ORDER
        with pytest.raises(ValueError, match=f"order must be at most {cap}"):
            identities.run("I1", cap + 1)
        with pytest.raises(ValueError, match=f"upto must be at most {cap}"):
            identities.sequence_values("spt23", cap + 1)
        assert identities.sequence_values("p", cap)[-1][0] == cap

    def test_single_run_passes(self):
        r = identities.run("I3", 12, 12)
        assert r.status == "pass"
        assert r.order_checked == 12
        assert r.first_mismatch is None
        assert r.runtime_ms >= 0

    def test_all_pass(self, full_results):
        assert [r.status for r in full_results] == ["pass"] * 22
        assert identities.all_passed(full_results)

    def test_results_sorted_by_id(self, full_results):
        assert [r.id for r in full_results] == [f"I{k}" for k in range(1, 23)]

    def test_exact_checks_pass_at_every_smaller_order(self):
        # prefix stability: an exact identity true through q^20 is true
        # through q^12 as well, and the runner agrees
        for order in (12, 16, 20):
            assert identities.run("I8", order, 12).status == "pass"
            assert identities.run("I2", order, 12).status == "pass"

    def test_no_check_passes_on_an_empty_case_stream(self):
        # I4 yields a case only when the pair relation fails, by design;
        # every other check must compare something even at the minimum order
        for meta, check, erratum in identities._REGISTRY:
            cases = check(10, 1)[0] if erratum else check(10, 1)
            count = sum(1 for _ in cases)
            if meta.id == "I4":
                assert count == 0
            else:
                assert count >= 1, meta.id

    def test_deterministic_apart_from_runtime(self):
        def strip(results):
            out = []
            for r in results:
                d = r.to_dict()
                d.pop("runtime_ms")
                out.append(d)
            return out

        assert strip(identities.run_all(12, 12)) == strip(identities.run_all(12, 12))


class TestDiagnostics:
    def test_i4_alpha0_diagnostic(self, full_results):
        d = next(r for r in full_results if r.id == "I4").diagnostic
        assert d["status"] == "fail" == d["expected_status"]
        assert d["first_mismatch"] == [1, "1", "2"]

    def test_i4_builds_one_j1_table(self):
        # the literal reading is derived from the registered pair, not tabulated again
        bailey.slater_j1.cache_clear()
        identities.run("I4", 40, 10)
        assert bailey.slater_j1.cache_info().misses == 1

    def test_i5_and_i6_build_no_j1_table(self):
        # both read the rows of slater_j1_window, which no memo keeps
        bailey.slater_j1.cache_clear()
        assert identities.run("I5", 60, 10).status == "pass"
        assert identities.run("I6", 60, 10).status == "pass"
        assert bailey.slater_j1.cache_info().misses == 0

    def test_i7_lambert_start_diagnostic(self, full_results):
        d = next(r for r in full_results if r.id == "I7").diagnostic
        assert d["status"] == "fail"
        assert d["first_mismatch"] == [1, "6", "0"]

    def test_i9_extra_factor_diagnostic(self, full_results):
        d = next(r for r in full_results if r.id == "I9").diagnostic
        assert d["status"] == "fail"
        assert d["first_mismatch"] == [9, "14", "16"]

    def test_i12_zero_term_diagnostic(self, full_results):
        d = next(r for r in full_results if r.id == "I12").diagnostic
        assert d["status"] == "fail"
        assert d["first_mismatch"] == [3, "13/12", "3-integral"]


def doctored(builder, index, change):
    """``builder`` with the coefficient of q^index replaced by change(old)."""
    def build(order):
        coeffs = list(builder(order).coeffs)
        coeffs[index] = change(coeffs[index])
        return rational_series(coeffs)
    return build


def doctored_R(index, change):
    """``theta.lattice_table`` with R(index) replaced by change(old)."""
    build = theta.lattice_table

    def table(bound):
        t = build(bound)
        R = list(t.R)
        R[index] = change(R[index])
        return t._replace(R=tuple(R))
    return table


class TestFailureLabels:
    """A defect injected into one builder is reported at its own index, with
    the offending value and a label that names what the value lacks."""

    def test_non_integral_xi_is_not_labelled_3_integral(self, monkeypatch):
        # a(q)^2 = 1 + 14q + ... makes xi(1) = 14/12 = 7/6
        monkeypatch.setattr(theta, "lattice_table", doctored_R(1, lambda r: 14))
        partitions.xi_series.cache_clear()
        try:
            for check_id in ("I9", "I11"):  # xi built before the cases / while yielding them
                r = identities.run(check_id, 12, 12)
                assert r.status == "fail"
                assert r.first_mismatch == [1, "7/6", "integral"]
        finally:
            partitions.xi_series.cache_clear()

    def test_one_square_of_a_reaches_every_check_that_reads_R(self, monkeypatch):
        # I8 and I10 read the table's R, and I9 and I11 read it through xi;
        # I7 and I17 read a(q) itself, which neither I8 nor xi reads
        partitions.xi_series.cache_clear()
        try:
            monkeypatch.setattr(theta, "lattice_table", doctored_R(1, lambda r: r + 1))
            for check_id in ("I8", "I9", "I10", "I11"):
                r = identities.run(check_id, 12, 12)
                assert r.status == "fail", check_id
                assert r.first_mismatch[0] <= 1, check_id
            monkeypatch.undo()
            partitions.xi_series.cache_clear()
            monkeypatch.setattr(theta, "a_lattice", doctored(theta.a_lattice, 1, lambda c: c + 1))
            for check_id in ("I7", "I17"):
                r = identities.run(check_id, 12, 12)
                assert r.status == "fail", check_id
                assert r.first_mismatch[0] == 1, check_id
            for check_id in ("I8", "I9"):
                assert identities.run(check_id, 12, 12).status == "pass", check_id
        finally:
            partitions.xi_series.cache_clear()

    def test_congruence_reports_index_and_value(self, monkeypatch):
        def third(c):
            return c + Fraction(1, 3)

        monkeypatch.setattr(partitions, "spt_series", doctored(partitions.spt_series, 2, third))
        assert identities.run("I16", 12, 12).first_mismatch == [6, "10/3", "3-integral"]
        monkeypatch.setattr(partitions, "spt23_series", doctored(partitions.spt23_series, 3, third))
        assert identities.run("I12", 12, 12).first_mismatch == [3, "13/3", "3-integral"]

    def test_i19_and_i20_label_a_non_3_integral_value_alike(self, monkeypatch):
        monkeypatch.setattr(partitions, "spt23_series",
                            doctored(partitions.spt23_series, 5, lambda c: Fraction(28, 3)))
        i19, i20 = identities.run("I19", 12, 12), identities.run("I20", 12, 12)
        assert i19.status == i20.status == "fail"
        assert i19.first_mismatch[0] == i20.first_mismatch[0] == 5
        assert i19.first_mismatch[2] == i20.first_mismatch[2] == "3-integral"

    def test_i20_needs_an_integer_not_just_a_3_adic_zero(self, monkeypatch):
        # 21/2 is 0 mod 3 read 3-adically, so I19 holds; spt23(5) must be a count
        monkeypatch.setattr(partitions, "spt23_series",
                            doctored(partitions.spt23_series, 5, lambda c: Fraction(21, 2)))
        assert identities.run("I19", 12, 12).status == "pass"
        r = identities.run("I20", 12, 12)
        assert r.status == "fail"
        assert r.first_mismatch == [5, "21/2", "integral"]


class TestErrorResults:
    def test_text_report_names_the_exception(self, monkeypatch, capsys):
        def broken(order):
            raise RuntimeError("spt23 builder broke")

        monkeypatch.setattr(partitions, "spt23_series", broken)
        assert cli.main(["verify", "--id", "I20", "--order", "12"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[:2] == ["I20", "error"]
        assert lines[2] == "      error: RuntimeError('spt23 builder broke')"
        assert lines[3] == f"      raised at: {__file__}:{broken.__code__.co_firstlineno + 1}"

    def test_raised_at_names_the_innermost_frame(self, monkeypatch):
        # the check calls the builder, which calls sigma: the frame that
        # raised is sigma's, two calls below the check
        monkeypatch.setattr(partitions, "spt23_series", lambda order: partitions.sigma(1, 1.5))
        d = identities.run("I20", 12, 12).to_dict()["diagnostic"]
        assert sorted(d) == ["error", "raised_at"]
        assert d["error"] == "TypeError('sigma takes an int or Fraction n, not float')"
        path, line = d["raised_at"].rsplit(":", 1)
        assert path == partitions.__file__
        assert "raise TypeError" in Path(path).read_text().splitlines()[int(line) - 1]


class TestCaches:
    def test_traced_builders_keep_their_caches(self):
        # perfbench/tracer.py reads cache_info() of each of these, so a cache
        # deleted by mistake breaks a traced benchmark run
        memoized = [
            partitions.spt_series,
            partitions.spt23_series,
            partitions.rank_moment_tail,
            partitions.second_rank_moment_series,
            partitions.xi_series,
            partitions.spt,
            partitions.spt23,
            partitions._rank_count_items,
            theta.lattice_table,
            bailey.slater_j1,
        ]
        missing = [fn.__name__ for fn in memoized
                   if not (hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"))]
        assert missing == []
        for fn in memoized:  # the tracer counts a miss as a rise in .misses
            info = fn.cache_info()
            assert isinstance(info.hits, int) and isinstance(info.misses, int), fn.__name__


class TestReportSchema:
    def test_shape(self, full_results):
        rep = identities.report(full_results, ORDER, BOUND)
        assert rep["config"] == {"order": ORDER, "oracle_bound": BOUND}
        assert len(rep["results"]) == 22
        for entry in rep["results"]:
            assert {"id", "status", "order_checked", "runtime_ms"} <= set(entry)
            assert entry["status"] in ("pass", "fail", "error")
        json.dumps(rep)  # must be serializable as-is

    def test_failures_carry_first_mismatch(self):
        # exercised through a diagnostic result, which uses the same encoding
        r = identities.run("I9", 12, 12)
        d = r.diagnostic["first_mismatch"]
        assert isinstance(d[0], int) and isinstance(d[1], str) and isinstance(d[2], str)


class TestSequences:
    def test_spt23_rows(self):
        text = identities.export_sequence("spt23", 8, "csv")
        lines = text.strip().splitlines()
        assert lines[-1] == "8,27"
        assert "5,9" in lines

    def test_all_names_export(self):
        for name in identities.SEQUENCE_NAMES:
            text = identities.export_sequence(name, 10, "csv")
            assert text.count("\n") >= 10

    def test_json_format(self):
        data = json.loads(identities.export_sequence("xi", 5, "json"))
        assert data["name"] == "xi"
        assert data["values"][-1] == [5, "9"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            identities.export_sequence("nope", 5)
        with pytest.raises(ValueError):
            identities.export_sequence("spt23", 5, "xml")

    def test_unknown_format_fails_before_building(self):
        partitions.spt23_series.cache_clear()
        with pytest.raises(ValueError, match="unknown export format"):
            identities.export_sequence("spt23", 1500, "xml")
        assert partitions.spt23_series.cache_info().misses == 0

    def test_non_int_upto_fails_before_building(self):
        # these failed deep inside a builder: ("xi", Fraction(4)) in lattice_table,
        # ("spt", 5.0) on a slice index, ("p", 2.5) in range
        before = [b.cache_info() for b in MEMOIZED]
        for name, upto in (("xi", Fraction(4)), ("spt", 5.0), ("p", 2.5)):
            with pytest.raises(TypeError, match=f"upto must be an int, not {type(upto).__name__}"):
                identities.sequence_values(name, upto)
            with pytest.raises(TypeError, match="upto must be an int"):
                identities.export_sequence(name, upto, "json")
        assert [b.cache_info() for b in MEMOIZED] == before

    def test_values_match_modules(self):
        values = dict(identities.sequence_values("R", 12))
        assert values[0] == 1 and values[1] == 12

    def test_empty_csv_has_no_rows(self):
        # sigma1 starts at n = 1, so upto 0 selects no index
        text = identities.export_sequence("sigma1", 0, "csv")
        assert text == ""
        assert list(csv.reader(io.StringIO(text))) == []
        assert json.loads(identities.export_sequence("sigma1", 0, "json"))["values"] == []

    def test_sigma_sequences_start_at_one(self):
        assert identities.sequence_values("sigma1", 4)[0][0] == 1
        assert identities.sequence_values("p", 4)[0][0] == 0


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop(identities.ORDER_ENV_VAR, None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sptlab", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,  # an input that should be refused must not hang the suite
    )


class TestCli:
    def test_verify_json_all_pass(self):
        proc = run_cli("verify", "--order", "12", "--oracle-bound", "12",
                       "--format", "json")
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["config"] == {"order": 12, "oracle_bound": 12}
        assert len(rep["results"]) == 22
        assert all(r["status"] == "pass" for r in rep["results"])

    def test_verify_single_id_text(self):
        proc = run_cli("verify", "--id", "I22", "--order", "12")
        assert proc.returncode == 0
        assert "I22" in proc.stdout and "pass" in proc.stdout

    def test_verify_unknown_id_fails(self):
        proc = run_cli("verify", "--id", "I99", "--order", "12")
        assert proc.returncode != 0

    def test_env_var_sets_default_order(self):
        proc = run_cli("verify", "--id", "I1", "--format", "json",
                       env_extra={identities.ORDER_ENV_VAR: "14"})
        rep = json.loads(proc.stdout)
        assert rep["results"][0]["order_checked"] == 14

    def test_flag_beats_env_var(self):
        proc = run_cli("verify", "--id", "I1", "--order", "16", "--format", "json",
                       env_extra={identities.ORDER_ENV_VAR: "14"})
        rep = json.loads(proc.stdout)
        assert rep["results"][0]["order_checked"] == 16

    def test_seq_csv(self):
        proc = run_cli("seq", "spt23", "--upto", "8")
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[-1] == "8,27"

    def test_seq_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        proc = run_cli("seq", "p3", "--upto", "9", "--output", str(target))
        assert proc.returncode == 0
        assert target.read_text().strip().splitlines()[-1] == "9,3"

    def test_coeff(self):
        proc = run_cli("coeff", "spt23", "8")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "27"

    def test_coeff_missing_index_fails(self):
        proc = run_cli("coeff", "spt23", "0")  # sequence starts at n = 1
        assert proc.returncode != 0

    def test_oracle_bound_past_the_cap_exits_with_message(self):
        proc = run_cli("verify", "--order", "12", "--oracle-bound", "61")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == "oracle bound must be at most 60"

    def test_huge_orders_fail_fast(self):
        runs = [
            (("coeff", "spt23", "100000"), None, "upto"),
            (("seq", "spt", "--upto", "2001"), None, "upto"),
            (("verify", "--order", "2001"), None, "order"),
            (("verify", "--id", "I1"), {identities.ORDER_ENV_VAR: "100000"}, "order"),
        ]
        for args, env, what in runs:
            proc = run_cli(*args, env_extra=env)
            assert proc.returncode == 1, args
            assert proc.stderr.strip() == f"{what} must be at most 2000", args

    def test_verify_report_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli("verify", "--order", "12", "--oracle-bound", "12",
                       "--format", "json", "--output", str(target))
        assert proc.returncode == 0
        rep = json.loads(target.read_text())
        assert len(rep["results"]) == 22

    def test_unwritable_output_fails_with_a_message(self, tmp_path):
        missing = tmp_path / "missing" / "out"
        runs = [
            (("verify", "--order", "12", "--oracle-bound", "12"), missing, "No such file or directory"),
            (("seq", "p", "--upto", "9"), missing, "No such file or directory"),
            (("seq", "p", "--upto", "9"), tmp_path, "Is a directory"),
        ]
        for args, target, reason in runs:
            proc = run_cli(*args, "--output", str(target))
            assert proc.returncode == 1, args
            assert "Traceback" not in proc.stderr, args
            assert proc.stderr.strip() == f"cannot write {target}: {reason}", args
            assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_write_that_fails_after_the_check_ends_in_a_message(self):
        # /dev/full opens for append, so only the write itself fails
        proc = run_cli("seq", "p", "--upto", "5", "--output", "/dev/full")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == "cannot write /dev/full: No space left on device"
        assert proc.stdout == ""

    def test_refused_input_leaves_no_output_file(self, tmp_path):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        for target in (fresh, kept):
            proc = run_cli("seq", "p", "--upto", "2001", "--output", str(target))
            assert proc.returncode == 1
            assert proc.stderr.strip() == "upto must be at most 2000"
        assert not fresh.exists()
        assert kept.read_text() == "old\n"

    def test_unwritable_output_is_refused_before_any_check_runs(self, tmp_path, monkeypatch):
        def reached(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(identities, "run_all", reached)
        monkeypatch.setattr(identities, "export_sequence", reached)
        target = tmp_path / "missing" / "out"
        for argv in (["verify"], ["seq", "p", "--upto", "9"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--output", str(target)])
            assert exc.value.code == f"cannot write {target}: No such file or directory"
