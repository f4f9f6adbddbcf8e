"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.db import database_to_json, save_csv_directory


@pytest.fixture
def employee_json(tmp_path, employee_db, employee_keys):
    path = tmp_path / "employee.json"
    path.write_text(json.dumps(database_to_json(employee_db, employee_keys)))
    return str(path)


_EMPLOYEE_QUERY = "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)"


class TestInspectAndRepairs:
    def test_inspect(self, employee_json, capsys):
        assert main(["inspect", "--json", employee_json]) == 0
        output = capsys.readouterr().out
        assert "facts: 4" in output
        assert "total repairs: 4" in output
        assert "consistent: False" in output

    def test_repairs_listing(self, employee_json, capsys):
        assert main(["repairs", "--json", employee_json, "--list", "2"]) == 0
        output = capsys.readouterr().out
        assert "total repairs: 4" in output
        assert output.count("--- repair") == 2


class TestDecideAndCount:
    def test_decide(self, employee_json, capsys):
        assert main(["decide", "--json", employee_json, "--query", _EMPLOYEE_QUERY]) == 0
        assert "entailed by some repair" in capsys.readouterr().out

    def test_count_exact(self, employee_json, capsys):
        assert main(["count", "--json", employee_json, "--query", _EMPLOYEE_QUERY]) == 0
        output = capsys.readouterr().out
        assert "2 of 4 repairs" in output

    def test_count_fpras(self, employee_json, capsys):
        code = main(
            [
                "count",
                "--json",
                employee_json,
                "--query",
                _EMPLOYEE_QUERY,
                "--method",
                "fpras",
                "--epsilon",
                "0.2",
                "--delta",
                "0.1",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "≈" in capsys.readouterr().out

    def test_count_with_answer(self, employee_json, capsys):
        code = main(
            [
                "count",
                "--json",
                employee_json,
                "--query",
                "Employee(1, x, y)",
                "--answer-vars",
                "x,y",
                "--answer",
                "Bob,HR",
            ]
        )
        assert code == 0
        assert "2 of 4 repairs" in capsys.readouterr().out


class TestRankAndCsv:
    def test_rank(self, employee_json, capsys):
        code = main(
            [
                "rank",
                "--json",
                employee_json,
                "--query",
                "Employee(1, x, y)",
                "--answer-vars",
                "x,y",
                "--top",
                "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 1 and "2/4" in output[0]

    def test_csv_loading_with_keys(self, tmp_path, employee_db, capsys):
        directory = tmp_path / "csv"
        save_csv_directory(employee_db, directory)
        code = main(
            [
                "inspect",
                "--csv-dir",
                str(directory),
                "--key",
                "Employee=1",
            ]
        )
        assert code == 0
        assert "total repairs: 4" in capsys.readouterr().out

    def test_bad_key_argument(self, tmp_path, employee_db):
        directory = tmp_path / "csv"
        save_csv_directory(employee_db, directory)
        for key in ("Employee", "Employee=a"):
            with pytest.raises(SystemExit) as excinfo:
                main(["inspect", "--csv-dir", str(directory), "--key", key])
            assert excinfo.value.code == 2

    def test_missing_source_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["inspect"])


@pytest.fixture
def batch_jobs_file(tmp_path, employee_db, employee_keys):
    """A well-formed job file: one path database, exact + seeded fpras jobs."""
    db_path = tmp_path / "employee.json"
    db_path.write_text(json.dumps(database_to_json(employee_db, employee_keys)))
    jobs_path = tmp_path / "jobs.json"
    jobs_path.write_text(
        json.dumps(
            {
                "databases": {"emp": {"path": "employee.json"}},
                "jobs": [
                    {"database": "emp", "query": _EMPLOYEE_QUERY},
                    {"database": "emp", "query": _EMPLOYEE_QUERY, "method": "naive"},
                    {
                        "database": "emp",
                        "query": _EMPLOYEE_QUERY,
                        "method": "fpras",
                        "epsilon": 0.3,
                        "delta": 0.2,
                        "seed": 7,
                    },
                ],
            }
        )
    )
    return str(jobs_path)


class TestBatch:
    def test_batch_json_report_shape(self, batch_jobs_file, capsys):
        assert main(["batch", "--jobs", batch_jobs_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"jobs", "summary"}
        summary = report["summary"]
        assert summary["jobs"] == 3
        assert summary["workers"] == 1
        assert set(summary["cache"]) == {
            "query",
            "decomposition",
            "decomposition-disk",
            "selectors",
            "selectors-disk",
            "exact",
        }
        first, second, estimate = report["jobs"]
        assert (first["satisfying"], first["total"]) == (2, 4)
        assert first["method"] == "certificate"
        assert second["method"] == "naive" and second["satisfying"] == 2
        assert estimate["is_estimate"] is True
        assert estimate["job"]["seed"] == 7
        # The repeated query must have hit the cold caches of job 0.
        assert "query" in second["cache_hits"]
        assert "decomposition" in second["cache_hits"]

    def test_batch_is_deterministic_across_invocations(self, batch_jobs_file, capsys):
        assert main(["batch", "--jobs", batch_jobs_file]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["batch", "--jobs", batch_jobs_file]) == 0
        second = json.loads(capsys.readouterr().out)
        extract = lambda report: [
            (job["satisfying"], job["total"], job["method"]) for job in report["jobs"]
        ]
        assert extract(first) == extract(second)

    def test_batch_with_workers_matches_sequential(self, batch_jobs_file, capsys):
        assert main(["batch", "--jobs", batch_jobs_file]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert main(["batch", "--jobs", batch_jobs_file, "--workers", "2"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert pooled["summary"]["workers"] == 2
        assert [job["satisfying"] for job in pooled["jobs"]] == [
            job["satisfying"] for job in sequential["jobs"]
        ]

    def test_batch_missing_file_fails(self, tmp_path, capsys):
        code = main(["batch", "--jobs", str(tmp_path / "missing.json")])
        assert code == 2
        assert "batch:" in capsys.readouterr().err

    def test_batch_invalid_json_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["batch", "--jobs", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_batch_malformed_document_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"databases": {}}))
        assert main(["batch", "--jobs", str(path)]) == 2
        assert "databases" in capsys.readouterr().err

    def test_batch_unknown_method_fails(self, tmp_path, employee_db, employee_keys, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                {
                    "databases": {"emp": database_to_json(employee_db, employee_keys)},
                    "jobs": [{"database": "emp", "query": _EMPLOYEE_QUERY, "method": "magic"}],
                }
            )
        )
        assert main(["batch", "--jobs", str(path)]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_batch_job_referencing_missing_database_fails(
        self, tmp_path, employee_db, employee_keys, capsys
    ):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                {
                    "databases": {"emp": database_to_json(employee_db, employee_keys)},
                    "jobs": [{"database": "ghost", "query": _EMPLOYEE_QUERY}],
                }
            )
        )
        assert main(["batch", "--jobs", str(path)]) == 2
        assert "ghost" in capsys.readouterr().err


class TestServe:
    def test_serve_streams_one_json_line_per_stream_item(
        self, batch_jobs_file, capsys
    ):
        assert main(["serve", "--jobs", batch_jobs_file, "--shards", "2"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(lines) == 3
        assert sorted(line["index"] for line in lines) == [0, 1, 2]
        by_index = {line["index"]: line for line in lines}
        assert (by_index[0]["satisfying"], by_index[0]["total"]) == (2, 4)
        assert by_index[0]["worker"].startswith("shard-")

    def test_serve_matches_batch_counts(self, batch_jobs_file, capsys):
        assert main(["batch", "--jobs", batch_jobs_file]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert main(["serve", "--jobs", batch_jobs_file]) == 0
        served = {
            line["index"]: line
            for line in map(
                json.loads, capsys.readouterr().out.strip().splitlines()
            )
        }
        for job in batch["jobs"]:
            assert served[job["index"]]["satisfying"] == job["satisfying"]
            assert served[job["index"]]["total"] == job["total"]

    def test_serve_marks_update_reports(
        self, tmp_path, employee_db, employee_keys, capsys
    ):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                {
                    "databases": {
                        "emp": database_to_json(employee_db, employee_keys)
                    },
                    "jobs": [
                        {"database": "emp", "query": _EMPLOYEE_QUERY},
                        {
                            "update": "emp",
                            "insert": [
                                {
                                    "relation": "Employee",
                                    "arguments": [3, "Eve", "IT"],
                                }
                            ],
                        },
                    ],
                }
            )
        )
        assert main(["serve", "--jobs", str(path), "--shards", "1"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        updates = [line for line in lines if line.get("type") == "update"]
        assert len(updates) == 1 and updates[0]["inserted"] == 1

    def test_serve_stats_go_to_stderr(self, batch_jobs_file, capsys):
        assert main(["serve", "--jobs", batch_jobs_file, "--stats"]) == 0
        captured = capsys.readouterr()
        stats = json.loads(captured.err)
        assert stats["queue"]["submitted"] == 3
        assert set(stats["shards"]) == {"0", "1"}
        # The elastic-sharding surface: per-shard load accounting, the
        # per-name load map, the routing table, and the rebalancer state
        # are all part of the printed report.
        for shard in stats["shards"].values():
            assert shard["in_flight"] == 0 and shard["queue_depth"] == 0
            assert shard["dispatched"] == shard["completed"]
        assert set(stats["routing"]["owners"]) == set(stats["names"])
        assert stats["rebalance"]["moves"] == 0
        assert stats["rebalance"]["interval"] is None

    def test_serve_accepts_rebalance_flags(self, batch_jobs_file, capsys):
        assert (
            main(
                [
                    "serve",
                    "--jobs",
                    batch_jobs_file,
                    "--stats",
                    "--rebalance-interval",
                    "30",
                    "--max-imbalance",
                    "1.5",
                ]
            )
            == 0
        )
        stats = json.loads(capsys.readouterr().err)
        assert stats["rebalance"]["interval"] == 30.0
        assert stats["rebalance"]["max_imbalance"] == 1.5
        assert stats["rebalance"]["policy"] == "GreedyRebalancer"

    def test_serve_rejects_a_bad_imbalance_threshold(
        self, batch_jobs_file, capsys
    ):
        code = main(
            ["serve", "--jobs", batch_jobs_file, "--max-imbalance", "0.5"]
        )
        assert code == 2
        assert "max_imbalance" in capsys.readouterr().err

    def test_serve_reads_jobs_from_stdin(
        self, tmp_path, employee_db, employee_keys, capsys, monkeypatch
    ):
        import io

        path = tmp_path / "databases.json"
        path.write_text(
            json.dumps(
                {"databases": {"emp": database_to_json(employee_db, employee_keys)}}
            )
        )
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                json.dumps({"database": "emp", "query": _EMPLOYEE_QUERY}) + "\n\n"
            ),
        )
        assert main(["serve", "--jobs", str(path), "--stdin"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["satisfying"] == 2

    def test_serve_stdin_unknown_database_fails(
        self, tmp_path, employee_db, employee_keys, capsys, monkeypatch
    ):
        import io

        path = tmp_path / "databases.json"
        path.write_text(
            json.dumps(
                {"databases": {"emp": database_to_json(employee_db, employee_keys)}}
            )
        )
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                json.dumps({"database": "ghost", "query": _EMPLOYEE_QUERY}) + "\n"
            ),
        )
        assert main(["serve", "--jobs", str(path), "--stdin"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_serve_missing_file_fails(self, tmp_path, capsys):
        assert main(["serve", "--jobs", str(tmp_path / "missing.json")]) == 2
        assert "serve:" in capsys.readouterr().err

    def test_serve_empty_jobs_without_stdin_fails(
        self, tmp_path, employee_db, employee_keys, capsys
    ):
        path = tmp_path / "databases.json"
        path.write_text(
            json.dumps(
                {"databases": {"emp": database_to_json(employee_db, employee_keys)}}
            )
        )
        assert main(["serve", "--jobs", str(path)]) == 2
        assert "jobs" in capsys.readouterr().err


#: Malformed invocations; ``{missing}`` is a file that does not exist,
#: ``{invalid}`` a file that is not JSON, ``{db}`` the employee database,
#: and the names in ``_WRONG_SHAPE`` are files holding those documents.
_MALFORMED = {
    "inspect-missing-file": ["inspect", "--json", "{missing}"],
    "repairs-missing-file": ["repairs", "--json", "{missing}"],
    "decide-missing-file": ["decide", "--json", "{missing}", "--query", _EMPLOYEE_QUERY],
    "count-missing-file": ["count", "--json", "{missing}", "--query", _EMPLOYEE_QUERY],
    "rank-missing-file": ["rank", "--json", "{missing}", "--query", "Employee(1, x, y)"],
    "update-missing-file": [
        "update", "--json", "{missing}", "--delta", "{missing}", "--output", "{out}",
    ],
    "range-missing-file": [
        "range", "emp", "--from", "-1", "--to", "0", "--json", "{missing}",
        "--query", _EMPLOYEE_QUERY, "--persist-cache", "{store}",
    ],
    "checkpoint-missing-file": [
        "checkpoint", "emp", "--json", "{missing}", "--persist-cache", "{store}",
    ],
    "rollback-missing-file": [
        "rollback", "emp", "f" * 64, "--json", "{missing}",
        "--persist-cache", "{store}", "--output", "{out}",
    ],
    "repairs-invalid-json": ["repairs", "--json", "{invalid}"],
    "count-unparsable-query": ["count", "--json", "{db}", "--query", "EXISTS x. R(1, x"],
    "decide-unparsable-query": ["decide", "--json", "{db}", "--query", "EXISTS x. R(1, x"],
    "rank-unparsable-query": ["rank", "--json", "{db}", "--query", "Employee(1, x"],
    "count-answer-on-boolean-query": [
        "count", "--json", "{db}", "--query", _EMPLOYEE_QUERY, "--answer", "1",
    ],
    "count-fpras-zero-epsilon": [
        "count", "--json", "{db}", "--query", _EMPLOYEE_QUERY,
        "--method", "fpras", "--epsilon", "0",
    ],
    "key-with-json": ["inspect", "--json", "{db}", "--key", "Employee=1"],
    "inspect-facts-not-a-list": ["inspect", "--json", "{facts_object}"],
    "inspect-fact-without-arguments": ["inspect", "--json", "{bare_fact}"],
    "inspect-document-not-an-object": ["inspect", "--json", "{list_document}"],
}

#: Valid JSON database documents of the wrong shape, by placeholder name.
_WRONG_SHAPE = {
    "facts_object": {"facts": {"R": [[1, "a"]]}},
    "bare_fact": {"facts": [{"relation": "R"}]},
    "list_document": [1, 2],
}


@pytest.mark.parametrize("argv", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_input_exits_2_with_one_line(argv, tmp_path, employee_json, capsys):
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    paths = {
        "missing": str(tmp_path / "missing.json"),
        "invalid": str(invalid),
        "db": employee_json,
        "store": str(tmp_path / "store"),
        "out": str(tmp_path / "out.json"),
    }
    for name, document in _WRONG_SHAPE.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    assert main([part.format(**paths) for part in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1, err
