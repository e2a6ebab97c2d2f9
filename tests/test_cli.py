"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.data.io import read_transactions


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "data.txt"
    exit_code = main(["generate", "DBLP", "-o", str(path), "--scale", "0.08", "--seed", "1"])
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiments_choices_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "figure99"])


class TestGenerate:
    def test_writes_transaction_file(self, dataset_file):
        collection = read_transactions(dataset_file)
        assert len(collection) > 0

    def test_unknown_profile(self, tmp_path, capsys):
        exit_code = main(["generate", "NOPE", "-o", str(tmp_path / "x.txt")])
        assert exit_code == 2
        assert "unknown dataset profile" in capsys.readouterr().out


class TestProfile:
    def test_prints_skew_and_rho(self, dataset_file, capsys):
        exit_code = main(["profile", str(dataset_file), "--samples", "200"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "gini" in output
        assert "ours (rho)" in output

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 2
        assert "no sets" in capsys.readouterr().out


class TestBuildAndQuery:
    def test_build_query_round_trip(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        exit_code = main(
            [
                "build",
                str(dataset_file),
                "-o",
                str(index_path),
                "--kind",
                "adversarial",
                "--b1",
                "0.6",
                "--repetitions",
                "4",
            ]
        )
        assert exit_code == 0
        assert index_path.exists()

        queries_path = tmp_path / "queries.txt"
        lines = dataset_file.read_text().splitlines()
        queries_path.write_text("\n".join(lines[:10]) + "\n")

        exit_code = main(["query", str(index_path), str(queries_path), "--mode", "best"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "queries returned a match" in output

    def test_build_correlated_kind(self, dataset_file, tmp_path):
        index_path = tmp_path / "correlated.json"
        exit_code = main(
            [
                "build",
                str(dataset_file),
                "-o",
                str(index_path),
                "--kind",
                "correlated",
                "--alpha",
                "0.7",
                "--repetitions",
                "3",
            ]
        )
        assert exit_code == 0
        assert index_path.exists()

    def test_build_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["build", str(empty), "-o", str(tmp_path / "x.json")]) == 2


class TestKernelStatsFlag:
    @pytest.fixture()
    def built_index(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "index.bin"
        exit_code = main(
            [
                "build",
                str(dataset_file),
                "-o",
                str(index_path),
                "--repetitions",
                "3",
                "--kernel-stats",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Kernel counters" in output
        assert "chain_probes" in output
        return index_path

    def test_query_prints_counter_table(self, built_index, dataset_file, capsys):
        exit_code = main(["query", str(built_index), str(dataset_file), "--kernel-stats"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Kernel counters" in output
        assert "paths_extended" in output
        assert "keys_folded" in output

    def test_query_batch_prints_counter_table(self, built_index, dataset_file, capsys):
        exit_code = main(
            ["query-batch", str(built_index), str(dataset_file), "--kernel-stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Kernel counters" in output
        assert "merge_rows" in output

    def test_no_flag_no_table(self, built_index, dataset_file, capsys):
        exit_code = main(["query", str(built_index), str(dataset_file)])
        assert exit_code == 0
        assert "Kernel counters" not in capsys.readouterr().out


class TestConvertAndInspect:
    @pytest.fixture()
    def built_index(self, dataset_file, tmp_path):
        index_path = tmp_path / "index.bin"
        exit_code = main(
            ["build", str(dataset_file), "-o", str(index_path), "--repetitions", "4"]
        )
        assert exit_code == 0
        return index_path

    def test_query_batch_on_saved_index(self, built_index, dataset_file, capsys):
        exit_code = main(
            ["query-batch", str(built_index), str(dataset_file), "--batch-size", "64"]
        )
        assert exit_code == 0
        assert "queries/s" in capsys.readouterr().out

    def test_convert_round_trips(self, built_index, dataset_file, tmp_path, capsys):
        converted = tmp_path / "converted.v3"
        assert main(["convert", str(built_index), "-o", str(converted)]) == 0
        assert "format v3" in capsys.readouterr().out
        assert main(["query", str(converted), str(dataset_file)]) == 0
        assert main(["query", str(converted), str(dataset_file), "--load-mode", "mmap"]) == 0

    def test_convert_downgrades_to_v2(self, built_index, dataset_file, tmp_path, capsys):
        import zipfile

        downgraded = tmp_path / "downgraded.bin"
        assert (
            main(["convert", str(built_index), "-o", str(downgraded), "--format", "2"])
            == 0
        )
        assert "format v2" in capsys.readouterr().out
        assert zipfile.is_zipfile(downgraded)
        assert main(["query", str(downgraded), str(dataset_file)]) == 0

    def test_convert_legacy_v1_file(self, built_index, dataset_file, tmp_path, capsys):
        from repro.core.serialization import _save_legacy_v1, load_index

        legacy = tmp_path / "legacy.json"
        _save_legacy_v1(load_index(built_index), legacy)
        converted = tmp_path / "from_v1.v3"
        assert main(["convert", str(legacy), "-o", str(converted)]) == 0
        assert "format v3" in capsys.readouterr().out
        assert main(["query", str(converted), str(dataset_file)]) == 0

    def test_convert_rejects_garbage(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x00\xffnot an index")
        assert main(["convert", str(garbage), "-o", str(tmp_path / "out.bin")]) == 2
        assert "cannot convert" in capsys.readouterr().out

    def test_inspect_prints_stats(self, built_index, capsys):
        assert main(["inspect", str(built_index)]) == 0
        output = capsys.readouterr().out
        assert "vectors" in output
        assert "disk bytes" in output
        assert "resident bytes" in output
        assert "v3" in output
        assert "key-range shards" in output

    def test_inspect_reports_v2_and_v1(self, built_index, tmp_path, capsys):
        from repro.core.config import PersistenceConfig
        from repro.core.serialization import _save_legacy_v1, load_index, save_index

        index = load_index(built_index)
        v2_path = tmp_path / "single_file.bin"
        save_index(index, v2_path, config=PersistenceConfig(format_version=2))
        assert main(["inspect", str(v2_path)]) == 0
        output = capsys.readouterr().out
        assert "v2" in output and "disk bytes" in output

        v1_path = tmp_path / "legacy.json"
        _save_legacy_v1(index, v1_path)
        assert main(["inspect", str(v1_path)]) == 0
        output = capsys.readouterr().out
        assert "v1" in output and "disk bytes" in output

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x00\xffnot an index")
        assert main(["inspect", str(garbage)]) == 2
        assert "cannot inspect" in capsys.readouterr().out

    def test_query_rejects_garbage(self, dataset_file, tmp_path, capsys):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"PK\x03\x04truncated zip")
        assert main(["query", str(garbage), str(dataset_file)]) == 2
        assert "cannot load" in capsys.readouterr().out

    def test_query_batch_rejects_garbage(self, dataset_file, tmp_path, capsys):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x00\xffnot an index")
        assert main(["query-batch", str(garbage), str(dataset_file)]) == 2
        assert "cannot load" in capsys.readouterr().out

    def test_build_no_compress(self, dataset_file, tmp_path):
        small = tmp_path / "compressed.bin"
        large = tmp_path / "plain.bin"
        assert (
            main(
                [
                    "build",
                    str(dataset_file),
                    "-o",
                    str(small),
                    "--repetitions",
                    "3",
                    "--format",
                    "2",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "build",
                    str(dataset_file),
                    "-o",
                    str(large),
                    "--repetitions",
                    "3",
                    "--format",
                    "2",
                    "--no-compress",
                ]
            )
            == 0
        )
        assert large.stat().st_size > small.stat().st_size

    def test_build_shards_and_mmap_query(self, dataset_file, tmp_path, capsys):
        index_path = tmp_path / "index.v3"
        assert (
            main(
                [
                    "build",
                    str(dataset_file),
                    "-o",
                    str(index_path),
                    "--repetitions",
                    "3",
                    "--shards",
                    "4",
                ]
            )
            == 0
        )
        assert "4 shards" in capsys.readouterr().out
        assert index_path.is_dir()
        assert (
            main(
                [
                    "query-batch",
                    str(index_path),
                    str(dataset_file),
                    "--load-mode",
                    "mmap",
                ]
            )
            == 0
        )
        assert "queries/s" in capsys.readouterr().out


class TestExperiments:
    def test_section71(self, capsys):
        assert main(["experiments", "section7.1"]) == 0
        assert "Section 7.1" in capsys.readouterr().out

    def test_section72(self, capsys):
        assert main(["experiments", "section7.2"]) == 0
        assert "Section 7.2" in capsys.readouterr().out

    def test_motivating(self, capsys):
        assert main(["experiments", "motivating"]) == 0
        assert "motivating" in capsys.readouterr().out

    def test_table1_small_scale(self, capsys):
        assert main(["experiments", "table1", "--scale", "0.05"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestServeParser:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["serve", "index.v3"])
        assert args.handler.__name__ == "_cmd_serve"
        assert args.name == "default"
        assert args.port == 8080
        assert args.batch_window_ms == 2.0
        assert args.load_mode == "mmap"
        assert args.extra_index is None

    def test_parses_all_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "a.v3",
                "--name",
                "primary",
                "--index",
                "b=b.v3",
                "--index",
                "c=c.v3",
                "--host",
                "0.0.0.0",
                "--port",
                "0",
                "--batch-window-ms",
                "0.5",
                "--max-batch-size",
                "128",
                "--max-pending",
                "100",
                "--retry-after",
                "3",
                "--load-mode",
                "ram",
            ]
        )
        assert args.extra_index == ["b=b.v3", "c=c.v3"]
        assert args.batch_window_ms == 0.5
        assert args.max_batch_size == 128
        assert args.load_mode == "ram"

    def test_rejects_bad_load_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "a.v3", "--load-mode", "disk"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "a.v3", "q.txt", "--shard-workers", "2"],
            ["query-batch", "a.v3", "q.txt", "--workers", "2"],
            ["query-batch", "a.v3", "q.txt", "--shard-workers", "2"],
            ["serve", "a.v3", "--shard-workers", "2"],
        ],
    )
    def test_rejects_removed_thread_flags(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_malformed_extra_index_exits_2(self, capsys):
        assert main(["serve", "a.v3", "--index", "missing-equals"]) == 2
        assert "NAME=PATH" in capsys.readouterr().out

    def test_duplicate_names_exit_2(self, capsys):
        assert main(["serve", "a.v3", "--index", "default=b.v3"]) == 2
        assert "duplicate" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, capsys):
        assert main(["serve", "a.v3", "--retry-after", "-1"]) == 2
        assert "cannot serve" in capsys.readouterr().out

    def test_missing_index_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.v3"
        assert main(["serve", str(missing), "--port", "0"]) == 2
        assert "cannot serve" in capsys.readouterr().out
