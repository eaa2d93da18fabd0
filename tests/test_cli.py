"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.grammars import source_path


class TestStats:
    def test_stats_on_shipped_grammar(self, capsys):
        assert main(["stats", source_path("binary")]) == 0
        out = capsys.readouterr().out
        assert "statistics" in out
        assert "alternating pass" in out
        assert "overlay times" in out

    def test_stats_auto_direction(self, capsys):
        assert main(["stats", source_path("calc"), "--direction", "auto"]) == 0
        out = capsys.readouterr().out
        assert "1 alternating pass" in out  # calc is L-attributed

    def test_semantic_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ag"
        bad.write_text(
            "grammar g : s .\nsymbols\n  nonterminal s ;\n  terminal T ;\n"
            "attributes\n  s : synthesized V int ;\nproductions\n"
            "s = T .\n  s.W = 1 ;\nend\n"
        )
        assert main(["stats", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestListing:
    def test_listing_to_stdout(self, capsys):
        assert main(["listing", source_path("binary")]) == 0
        assert "implicit copy-rule" in capsys.readouterr().out

    def test_listing_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "l.txt"
        assert main(["listing", source_path("binary"), "-o", str(out_file)]) == 0
        assert "written" in capsys.readouterr().out
        assert "productions with semantic functions" in out_file.read_text()


class TestGenerate:
    def test_generate_pascal(self, tmp_path, capsys):
        assert main([
            "generate", source_path("binary"), "--language", "pascal",
            "-o", str(tmp_path),
        ]) == 0
        files = sorted(os.listdir(tmp_path))
        assert files == ["pass1.pas", "pass2.pas"]
        text = (tmp_path / "pass1.pas").read_text()
        assert "GetNode" in text
        assert "husk" in capsys.readouterr().out

    def test_generate_python_is_importable(self, tmp_path, capsys):
        assert main([
            "generate", source_path("binary"), "--language", "python",
            "-o", str(tmp_path),
        ]) == 0
        src = (tmp_path / "pass2.py").read_text()
        compile(src, "pass2.py", "exec")


class TestRun:
    def test_run_binary(self, capsys):
        assert main(["run", "binary", "101.01"]) == 0
        assert "VAL = 5.25" in capsys.readouterr().out

    def test_run_calc(self, capsys):
        assert main(["run", "calc", "let a = 6 ; print a * 7"]) == 0
        assert "OUT = [42]" in capsys.readouterr().out

    def test_run_pascal_with_exec(self, capsys, tmp_path):
        prog = tmp_path / "p.pas"
        prog.write_text(
            "program p; var a : integer; begin a := 6; writeln(a * 7) end."
        )
        assert main(["run", "pascal", str(prog), "--exec"]) == 0
        out = capsys.readouterr().out
        assert "execution output: [42]" in out

    def test_run_linguist_on_grammar(self, capsys):
        assert main(["run", "linguist", source_path("binary")]) == 0
        out = capsys.readouterr().out
        assert "N$PRODS = 5" in out

    def test_run_unknown_grammar(self, capsys):
        assert main(["run", "nope", "x"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_exec_without_code_attribute(self, capsys):
        assert main(["run", "binary", "1.1", "--exec"]) == 2
        assert "no CODE" in capsys.readouterr().err


class TestDeadlineFlags:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
    @pytest.mark.parametrize("verb", ["batch", "serve"])
    def test_bad_timeout_is_a_usage_error(self, verb, value, capsys):
        """A deadline must be positive and finite: anything else exits 2
        before a worker starts (``--timeout 0`` used to fail every
        input and kill its worker each time)."""
        argv = [verb, source_path("calc")]
        if verb == "batch":
            argv.append("let a = 1 ; print a")
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, f"--timeout={value}"])
        assert excinfo.value.code == 2
        assert "positive, finite" in capsys.readouterr().err


class TestFsckDirectory:
    def test_record_directory_resolves_to_its_provenance_log(
        self, capsys, tmp_path
    ):
        record = str(tmp_path / "rec")
        assert main([
            "run", "calc", "let a = 6 ; print a * 7", "--record", record,
        ]) == 0
        capsys.readouterr()
        assert main(["fsck", record]) == 0
        out = capsys.readouterr().out
        assert "provenance.ndjson" in out and "PROV1, sealed" in out

    def test_directory_without_an_artifact_is_one_clear_error(
        self, capsys, tmp_path
    ):
        assert main(["fsck", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no artifact in directory {tmp_path} (looked for "
            "memo.ndjson, provenance.ndjson, requests.ndjson)\n"
        )


class TestSelfcheck:
    def test_selfcheck(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "4 alternating passes" in out
