import io
import json
import re

import pytest

from robustkep import (
    Encoding,
    Policy,
    RobustConfig,
    build_pool,
    generate_instance,
    parse_instance,
    render_instance,
    solve_robust,
)
from robustkep.bench import (
    CSV_FIELDS,
    BenchRecord,
    aggregate,
    read_records,
    record_from_row,
    record_to_row,
    run_matrix,
    shifted_geometric_mean,
    summary_to_csv,
    summary_to_table,
    write_records,
)
from robustkep import bench, cli
from robustkep.cli import main

KEP_TEXT = "3 1 4\n3 0\n0 1\n1 2\n2 1\n"


class TestInstanceFormats:
    def test_parse_kep(self):
        g = parse_instance(KEP_TEXT)
        assert g.num_pairs == 3 and g.num_ndds == 1
        assert g.arcs == ((3, 0), (0, 1), (1, 2), (2, 1))

    def test_parse_json(self):
        g = parse_instance('{"pairs": 2, "ndds": 1, "arcs": [[2, 0], [0, 1]]}')
        assert g.num_pairs == 2 and g.arcs == ((2, 0), (0, 1))

    @pytest.mark.parametrize("fmt", ["kep", "json"])
    def test_round_trip(self, fmt):
        g = generate_instance(6, 2, 0.3, seed=1)
        assert parse_instance(render_instance(g, fmt)) == g

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_instance("3 1\n")

    def test_wrong_arc_count(self):
        with pytest.raises(ValueError, match="arc lines"):
            parse_instance("2 0 2\n0 1\n")

    def test_arc_into_ndd_rejected(self):
        with pytest.raises(ValueError, match="enters an NDD"):
            parse_instance("1 1 1\n0 1\n")

    @pytest.mark.parametrize(
        "text",
        ["-2 0 0\n", '{"pairs": 2, "ndds": -1, "arcs": []}'],
        ids=["kep", "json"],
    )
    def test_negative_counts_rejected(self, text):
        with pytest.raises(ValueError, match="negative vertex count"):
            parse_instance(text)

    def test_json_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            parse_instance('{"pairs": 2, "arcs": []}')

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"arcs": [1, 2]}, "malformed JSON arc 1"),
            ({"arcs": None}, "'arcs' must be a list, got None"),
            ({"arcs": [[0, 1, 2]]}, r"malformed JSON arc \[0, 1, 2\]"),
            ({"arcs": [[0, "x"]]}, r"non-integer JSON arc \[0, 'x'\]"),
            ({"pairs": None}, "non-integer JSON vertex counts None 0"),
            ({"pairs": 2.7}, "non-integer JSON vertex counts 2.7 0"),
            ({"ndds": True}, "non-integer JSON vertex counts 2 True"),
            ({"pairs": "2"}, "non-integer JSON vertex counts '2' 0"),
            ({"arcs": [[0.9, 1]]}, r"non-integer JSON arc \[0.9, 1\]"),
            ({"arcs": [[1, "0"]]}, r"non-integer JSON arc \[1, '0'\]"),
            ({"arcs": [[True, 1]]}, r"non-integer JSON arc \[True, 1\]"),
        ],
    )
    def test_json_malformed(self, fields, match):
        data = {"pairs": 2, "ndds": 0, "arcs": [], **fields}
        with pytest.raises(ValueError, match=match):
            parse_instance(json.dumps(data))


class TestGenerator:
    def test_density_zero(self):
        assert generate_instance(5, 1, 0.0, seed=0).arcs == ()

    def test_density_one_is_complete(self):
        g = generate_instance(2, 1, 1.0, seed=0)
        assert set(g.arcs) == {(0, 1), (1, 0), (2, 0), (2, 1)}

    def test_determinism(self):
        a = generate_instance(20, 2, 0.15, seed=42)
        b = generate_instance(20, 2, 0.15, seed=42)
        assert a == b

    def test_bad_density(self):
        with pytest.raises(ValueError, match="density"):
            generate_instance(3, 0, 1.5)


def make_record(**overrides):
    base = dict(
        instance_name="inst",
        n_pairs=3,
        n_ndds=1,
        n_arcs=4,
        max_cycle_len=3,
        max_chain_len=3,
        budget=1,
        policy="fr",
        encoding="cc",
        method="cut",
        lifting=True,
        status="optimal",
        objective=1,
        time_total_s=0.5,
        time_stage2_s=0.2,
        time_stage3_s=0.1,
        n_attacks=2,
        n_subproblems=3,
        bb_nodes=10,
    )
    base.update(overrides)
    return BenchRecord(**base)


class TestBenchRecord:
    def test_objective_only_when_optimal(self):
        with pytest.raises(ValueError, match="objective"):
            make_record(status="timelimit")
        make_record(status="timelimit", objective=None)

    def test_csv_round_trip(self):
        rec = make_record()
        assert record_from_row(record_to_row(rec)) == rec
        rec2 = make_record(status="timelimit", objective=None)
        assert record_from_row(record_to_row(rec2)) == rec2

    def test_stream_round_trip(self):
        records = [make_record(), make_record(instance_name="other", budget=2)]
        buf = io.StringIO()
        write_records(records, buf)
        buf.seek(0)
        assert read_records(buf) == records

    def test_header_with_seed_column_rejected(self):
        # a CSV written while the records still had a seed column
        buf = io.StringIO()
        write_records([make_record()], buf)
        lines = buf.getvalue().splitlines()
        old = [lines[0] + ",seed", lines[1] + ",7"]
        with pytest.raises(ValueError, match=r"missing \[\], unexpected \['seed'\]"):
            read_records(io.StringIO("\n".join(old) + "\n"))

    def test_csv_without_header_rejected(self):
        # every writer puts the header first, so a leading data row is an error
        buf = io.StringIO()
        write_records([make_record()], buf)
        data_only = buf.getvalue().splitlines()[1]
        with pytest.raises(ValueError, match="CSV header differs.*unexpected \\['inst"):
            read_records(io.StringIO(data_only + "\n"))

    @pytest.mark.parametrize(
        "column, raw",
        [("lifting", "maybe"), ("lifting", "true"), ("time_total_s", "nan"),
         ("time_stage2_s", "inf"), ("time_stage3_s", "-0.5"), ("policy", "xyz"),
         ("encoding", "CC"), ("method", "oracle"), ("budget", "1.5")],
    )
    def test_malformed_cell_rejected(self, column, raw):
        row = record_to_row(make_record())
        row[CSV_FIELDS.index(column)] = raw
        with pytest.raises(ValueError, match=f"^column {column}: .*{re.escape(raw)}"):
            record_from_row(row)


class TestRunMatrix:
    def test_encodings_agree(self):
        g = parse_instance(KEP_TEXT)
        configs = [
            RobustConfig(3, 3, 1, Policy.FULL_RECOURSE, enc)
            for enc in (Encoding.CC, Encoding.PICEF)
        ]
        buf = io.StringIO()
        records = run_matrix([("worked", g)], configs, buf)
        assert len(records) == 2
        assert records[0].objective == records[1].objective == 1
        buf.seek(0)
        # round-trip up to the CSV's fixed time precision
        assert [record_to_row(r) for r in read_records(buf)] == [
            record_to_row(r) for r in records
        ]

    def test_policy_ordering(self):
        g = generate_instance(6, 1, 0.4, seed=9)
        configs = [
            RobustConfig(3, 2, 1, pol)
            for pol in (Policy.FULL_RECOURSE, Policy.FIX_SUCCESSFUL)
        ]
        fr, fse = run_matrix([("g", g)], configs)
        assert fse.objective <= fr.objective

    def test_time_limit_record(self):
        g = generate_instance(8, 2, 0.4, seed=5)
        (rec,) = run_matrix([("g", g)], [RobustConfig(3, 3, 2, time_limit=1e-6)])
        assert rec.status == "timelimit"
        assert rec.objective is None


class TestShiftedGeometricMean:
    def test_reference_value(self):
        # (20 * 30 * 110)^(1/3) - 10, evaluated independently
        expected = (20 * 30 * 110) ** (1 / 3) - 10
        assert shifted_geometric_mean([10, 20, 100], 10) == pytest.approx(
            expected, abs=0.01
        )

    def test_single_value_identity(self):
        for shift in (0.0, 1.0, 10.0):
            assert shifted_geometric_mean([7.5], shift) == pytest.approx(7.5)

    def test_constant_identity(self):
        assert shifted_geometric_mean([4.0, 4.0, 4.0], 10) == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            shifted_geometric_mean([], 10)

    @pytest.mark.parametrize("shift", [-1.0, float("nan"), float("inf")])
    def test_bad_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="shift must be a finite number"):
            shifted_geometric_mean([1.0], shift)


class TestAggregate:
    def test_empty(self):
        assert aggregate([]) == []

    def test_grouping_and_means(self):
        records = [
            make_record(time_total_s=10.0),
            make_record(instance_name="b", time_total_s=20.0),
            make_record(instance_name="c", time_total_s=100.0),
        ]
        (row,) = aggregate(records)
        assert row["n_instances"] == 3 and row["n_optimal"] == 3
        assert row["sgm_time_s"] == pytest.approx((20 * 30 * 110) ** (1 / 3) - 10, abs=0.01)
        assert row["mean_attacks"] == pytest.approx(2.0)

    def test_permutation_invariance(self):
        records = [
            make_record(time_total_s=10.0),
            make_record(instance_name="b", budget=2, time_total_s=3.0),
            make_record(instance_name="c", time_total_s=100.0),
        ]
        assert aggregate(records) == aggregate(list(reversed(records)))

    def test_unsolved_group_shows_dash(self):
        records = [make_record(status="timelimit", objective=None)]
        rows = aggregate(records)
        assert rows[0]["sgm_time_s"] is None
        table = summary_to_table(rows)
        assert "—" in table
        assert summary_to_csv(rows).count("\n") == 2


class TestCli:
    def test_generate_solve_bench_aggregate(self, tmp_path, capsys):
        inst = tmp_path / "g.kep"
        results = tmp_path / "results.csv"
        summary = tmp_path / "summary.csv"
        assert (
            main(
                [
                    "generate",
                    "--pairs",
                    "5",
                    "--ndds",
                    "1",
                    "--density",
                    "0.4",
                    "--seed",
                    "3",
                    "--output",
                    str(inst),
                ]
            )
            == 0
        )
        assert main(["solve", "--input", str(inst), "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out and "objective:" in out
        assert (
            main(
                [
                    "bench",
                    "--input",
                    str(inst),
                    "--budget",
                    "0,1",
                    "--formulation",
                    "cc,picef",
                    "--output",
                    str(results),
                ]
            )
            == 0
        )
        with open(results) as fh:
            records = read_records(fh)
        assert len(records) == 4
        assert (
            main(
                [
                    "aggregate",
                    "--input",
                    str(results),
                    "--output",
                    str(summary),
                ]
            )
            == 0
        )
        table = capsys.readouterr().out
        assert "sgm" in summary.read_text() or summary.read_text().strip()
        assert "policy" in table or "fr" in table

    def test_solve_rejects_listed_flags(self, tmp_path, capsys):
        # solve runs one config; a comma list would be cut to its first value
        inst = tmp_path / "g.kep"
        inst.write_text(KEP_TEXT)
        argv = ["solve", "--input", str(inst), "--budget", "2,1",
                "--policy", "fse,fr", "--formulation", "picef,cc"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        message = captured.err
        for flag in ("--budget", "--policy", "--formulation"):
            assert flag in message
        assert "--method" not in message and "bench" in message
        assert captured.out == ""

    def test_solve_time_limit_prints_certified_value(self, tmp_path, capsys):
        inst = tmp_path / "g.kep"
        inst.write_text(KEP_TEXT)
        assert main(["solve", "--input", str(inst), "--time-limit", "1e-9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("status: timelimit\ncertified value: 0\n")
        assert "objective" not in out

    def test_solve_json_instance(self, tmp_path, capsys):
        inst = tmp_path / "g.json"
        inst.write_text('{"pairs": 3, "ndds": 1, "arcs": [[3,0],[0,1],[1,2],[2,1]]}')
        assert main(["solve", "--input", str(inst), "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "objective: 1" in out
        # the printed plan is the plan solve_robust returns for the same config
        graph = parse_instance(inst.read_text())
        result = solve_robust(graph, RobustConfig(3, 3, 1))
        assert result.exchanges == result.initial.exchanges(build_pool(graph, 3, 3))
        printed = [ln.strip() for ln in out.splitlines() if ln.startswith("  ")]
        expected = [
            f"{e.kind.value}: {' '.join(map(str, e.vertices))}"
            for e in result.exchanges
        ]
        assert expected and printed == expected

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["solve", "--input", "{dir}/bad.json"], "non-integer JSON vertex counts 2.7"),
            (["solve", "--input", "{dir}/missing.kep"], "No such file"),
            (["solve", "--input", "{dir}/g.kep", "--budget", "x"], "'x'"),
            (["solve", "--input", "{dir}/g.kep", "--time-limit", "nan"], "time limit"),
            (["solve", "--input", "{dir}/g.kep", "--lifting", "maybe"], "on|off"),
            (["bench", "--input", "{dir}/g.kep", "--policy", "fr,xx"], "'xx'"),
            (["generate", "--pairs", "4", "--density", "2"], "density 2.0"),
            (["aggregate", "--input", "{dir}/g.kep"], "CSV header differs"),
            (["solve", "--input", "{dir}/g.kep", "--budget", "1.5"],
             "--budget: expected an integer, got '1.5'"),
            (["solve", "--input", "{dir}/g.kep", "--cycle-len", "2.0"],
             "--cycle-len: expected an integer, got '2.0'"),
            (["bench", "--input", "{dir}/g.kep", "--chain-len", "1,x"],
             "--chain-len: expected an integer, got 'x'"),
            (["solve", "--input", "{dir}/g.kep", "--output", "{dir}/nodir/x.txt"],
             "nodir/x.txt"),
            (["bench", "--input", "{dir}/g.kep", "--output", "{dir}/nodir/x.csv"],
             "nodir/x.csv"),
            (["generate", "--pairs", "4", "--output", "{dir}/nodir/x.kep"], "nodir/x.kep"),
            (["aggregate", "--input", "{dir}/empty.csv", "--output", "{dir}/nodir/s.csv"],
             "nodir/s.csv"),
            (["aggregate", "--input", "{dir}/bad-cell.csv"],
             "column lifting: expected on|off, got 'maybe'"),
            (["aggregate", "--input", "{dir}/empty.csv", "--shift", "-1",
              "--output", "{dir}/s.csv"], "shift must be a finite number >= 0, got -1.0"),
            (["aggregate", "--input", "{dir}/empty.csv", "--shift", "nan",
              "--output", "{dir}/s.csv"], "got nan"),
            (["solve", "--input", "{dir}/g.kep", "--budget", "1,2"],
             "--budget: solve takes one value per flag, bench takes lists"),
        ],
        ids=["json-float", "missing-file", "budget", "time-limit", "lifting",
             "bench-policy", "density", "aggregate-non-csv", "budget-float",
             "cycle-len-float", "bench-chain-len", "solve-output", "bench-output",
             "generate-output", "aggregate-output", "aggregate-cell",
             "shift-negative", "shift-nan", "solve-budget-list"],
    )
    def test_input_error_is_one_line(self, tmp_path, capsys, monkeypatch, argv, cause):
        def unreachable(graph, cfg):
            raise AssertionError("bad input must end the command before any solve")

        monkeypatch.setattr(cli, "solve_robust", unreachable)
        monkeypatch.setattr(bench, "solve_robust", unreachable)
        (tmp_path / "g.kep").write_text(KEP_TEXT)
        (tmp_path / "bad.json").write_text('{"pairs": 2.7, "ndds": 0, "arcs": []}')
        (tmp_path / "empty.csv").write_text("")
        row = record_to_row(make_record())
        row[CSV_FIELDS.index("lifting")] = "maybe"
        (tmp_path / "bad-cell.csv").write_text(",".join(CSV_FIELDS) + "\n" + ",".join(row) + "\n")
        inputs = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([a.format(dir=tmp_path) for a in argv])
        assert exc.value.code == 1
        # the error comes before any output file is opened
        assert sorted(tmp_path.iterdir()) == inputs
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"robustkep {argv[0]}: ") and cause in line
        assert "Traceback" not in captured.err

    def test_solver_error_propagates(self, tmp_path, monkeypatch):
        # only reading input is guarded; a ValueError from the solve is a bug
        def broken(graph, cfg):
            raise ValueError("solver bug")

        monkeypatch.setattr(cli, "solve_robust", broken)
        inst = tmp_path / "g.kep"
        inst.write_text(KEP_TEXT)
        with pytest.raises(ValueError, match="solver bug"):
            main(["solve", "--input", str(inst)])
