import argparse
from fractions import Fraction
from pathlib import Path

import pytest

from modfold.cli import _build_parser, main


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_single_stage(self, capsys):
        code, out, _ = run(capsys, "bounds", "70", "75", "80", "90")
        assert code == 0
        assert "theta: 5/2" in out
        assert "reference index: 3 (modulus 90)" in out
        assert "tau[0] <= 5/2" in out
        assert "tau[1] <= 5/1" in out
        assert "tau[3] < 5/2" in out

    def test_grouped(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            *map(str, (192, 288, 216, 360, 320, 448)),
            "--grouping",
            "[[[0,1],[2,3]],[4,5]]",
        )
        assert code == 0
        assert "group [192 288]: bound 24/1, effective 18/1" in out
        assert "cross bound at node 0: 18/1" in out
        assert "cross bound at root: 80/1" in out

    def test_grouped_depth_two_reference(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "180", "220", "486", "513",
            "--grouping", "[[0,1],[2,3]]",
        )
        assert code == 0
        assert "cross bound at root: 9/2" in out
        assert "reference group:" in out

    def test_invalid_moduli(self, capsys):
        code, _, err = run(capsys, "bounds", "70", "70")
        assert code == 2
        assert "distinct" in err

    def test_invalid_input_prints_nothing(self, capsys):
        # every value is computed before the first line is printed
        code, out, err = run(capsys, "bounds", "7", "--grouping", "[0]")
        assert (code, out) == (2, "")
        assert "at least two moduli" in err


class TestReconstruct:
    def test_consistent(self, capsys):
        code, out, _ = run(
            capsys,
            "reconstruct", "70", "75", "80", "90",
            "--remainders", "22", "23", "41", "10",
        )
        assert code == 0
        assert "estimate: 1000" in out
        assert "folding: 14 13 12 11" in out
        assert "verdict: consistent" in out

    def test_explicit_reference(self, capsys):
        code, out, _ = run(
            capsys,
            "reconstruct", "70", "75", "80", "90",
            "--remainders", "20", "25", "40", "10",
            "--reference", "3",
        )
        assert code == 0
        assert "estimate: 1000" in out

    def test_grouped(self, capsys):
        n = 712345 % 1015740
        rems = [str(n % m) for m in (180, 220, 486, 513)]
        code, out, _ = run(
            capsys,
            "reconstruct", "180", "220", "486", "513",
            "--remainders", *rems,
            "--grouping", "[[0,1],[2,3]]",
        )
        assert code == 0
        assert f"estimate: {n}" in out

    def test_reference_with_grouping_is_invalid_input(self, capsys):
        code, out, err = run(
            capsys, "reconstruct", "135", "180", "162",
            "--remainders", "29", "164", "110",
            "--grouping", "[[0,1],[2]]", "--reference", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--reference" in err

    def test_inconsistent_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "8", "12", "--remainders", "1", "100"
        )
        assert code == 1
        assert "verdict: inconsistent" in out
        assert "partial estimate: 17" in out

    def test_failure_below_root_prints_no_partial_estimate(self, capsys):
        # leaf [0,1] fails; its value 5 is modulo 540, not an estimate of N
        code, out, _ = run(
            capsys, "reconstruct", "135", "180", "162",
            "--remainders", "5", "184", "114", "--grouping", "[[0,1],[2]]",
        )
        assert code == 1
        assert "verdict: inconsistent (negative folding number)" in out
        assert "partial estimate" not in out

    def test_root_failure_prints_partial_estimate(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "135", "180", "162",
            "--remainders", "-16", "-16", "134", "--grouping", "[[0,1],[2]]",
        )
        assert code == 1
        assert "partial estimate: -22" in out


class TestGroup:
    def test_success(self, capsys):
        code, out, _ = run(
            capsys, "group", *map(str, (210, 143, 77, 128, 81, 125, 169))
        )
        assert code == 0
        assert "verdict: success" in out

    def test_failure_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "group", "25", "35", "80", "95")
        assert code == 0
        assert "verdict: failure" in out

    def test_cap_exceeded(self, capsys):
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61]
        code, _, err = run(capsys, "group", *map(str, primes))
        assert code == 3
        assert "cap" in err


class TestSimulate:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "135", "180", "162",
            "--tau-max", "2", "--trials", "500", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "tau,mean_abs_error,max_abs_error,bound,violations,"
            "folding_failures"
        )
        assert len(lines) == 4
        assert lines[1].startswith("0,0.000000,0,0,0,0")

    def test_deterministic(self, capsys):
        argv = [
            "simulate", "135", "180", "162",
            "--tau-max", "1", "--trials", "300", "--seed", "3",
            "--grouping", "[[0,1],[2]]",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_error_model_and_clamp_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "8", "12", "15",
            "--tau-max", "1", "--trials", "200", "--seed", "1",
            "--error-model", "symmetric", "--clamp",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_mean_past_float_range(self, capsys):
        # the level-1 mean error is about 1.3e320, too large for a float
        big = 10**160
        code, out, err = run(
            capsys,
            "simulate", "6", str(big + 7), str(big + 9),
            "--tau-max", "3", "--trials", "20", "--error-model", "symmetric",
        )
        assert (code, err) == (0, "")
        mean = 1275 * 10**317 + 20625 * 10**157 + 82
        max_err = 55 * 10**319 + 885 * 10**159 + 351
        assert out.splitlines()[2] == f"1,{mean}.500000,{max_err},1,15,0"

    @pytest.mark.parametrize(
        "golden, argv",
        [
            (
                "bench/expected/single_135_180_162.csv",
                "135 180 162 --tau-max 25 --trials 500 --seed 0",
            ),
            (
                "bench/expected/tree_135_180_162.csv",
                "135 180 162 --tau-max 11 --trials 500 --seed 0"
                " --grouping [[0,1],[2]]",
            ),
            (
                "bench/expected/depth3_192_288_216_360_320_448.csv",
                "192 288 216 360 320 448 --tau-max 19 --trials 500 --seed 0"
                " --grouping [[[0,1],[2,3]],[4,5]]",
            ),
            (
                "tests/expected/clamped_8_12_15.csv",
                "8 12 15 --tau-max 6 --trials 400 --seed 7"
                " --error-model symmetric --clamp",
            ),
        ],
        ids=["single", "tree", "depth3", "clamped"],
    )
    def test_golden_csv(self, capsys, golden, argv):
        # the sweeps CI compares with cmp, byte for byte, run in-process
        code, out, err = run(capsys, "simulate", *argv.split())
        assert (code, err) == (0, "")
        assert out.encode() == (ROOT / golden).read_bytes()

    def test_negative_tau_max_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "simulate", "7", "9", "--tau-max", "-3")
        assert code == 2
        assert out == ""
        assert "--tau-max" in err


class TestDeepGrouping:
    DEEP = "[" * 3000 + "0,1" + "]" * 3000

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "3", "5"),
            ("reconstruct", "3", "5", "--remainders", "1", "2"),
            ("simulate", "3", "5", "--tau-max", "1", "--trials", "5"),
        ],
    )
    def test_exit_two_without_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--grouping", self.DEEP)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "too deep" in err


class TestEmptyGrouping:
    """An empty --grouping is an invalid plan, not an absent one."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "135", "180", "162"),
            ("reconstruct", "135", "180", "162", "--remainders", "31", "162",
             "111"),
            ("simulate", "135", "180", "162", "--tau-max", "1", "--trials",
             "5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--grouping=")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_reference_is_still_refused(self, capsys):
        code, out, err = run(
            capsys, "reconstruct", "135", "180", "162",
            "--remainders", "31", "162", "111", "--grouping=",
            "--reference", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--reference" in err


class TestParsing:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "8", "12"])
        assert exc.value.code == 2


class TestParserReuse:
    """main builds its parser once per process and reuses it."""

    def test_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "modfold":
                built.append(self)

        _build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "bounds", "70", "75")[0] == 0
        assert run(capsys, "reconstruct", "8", "12",
                   "--remainders", "1", "5")[0] == 0
        assert run(capsys, "group", "12", "18", "35")[0] == 0
        assert run(capsys, "simulate", "7", "9", "--tau-max", "1",
                   "--trials", "5")[0] == 0
        for argv, code in ((["simulate", "8", "12"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        assert len(built) == 1

    def test_no_state_carries_over(self, capsys):
        code, _, err = run(
            capsys, "simulate", "135", "180", "162", "--tau-max", "3",
            "--trials", "50", "--seed", "4", "--grouping", "[[0,1],[2]]",
            "--clamp", "--error-model", "symmetric",
        )
        assert (code, err) == (0, "")
        code, out, err = run(
            capsys, *"simulate 135 180 162 --tau-max 25 --trials 500"
            " --seed 0".split(),
        )
        assert (code, err) == (0, "")
        golden = ROOT / "bench/expected/single_135_180_162.csv"
        assert out.encode() == golden.read_bytes()

        with pytest.raises(SystemExit) as exc:
            main(["simulate", "8", "12"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage: modfold simulate")
        assert "--tau-max" in out.err
        code, _, err = run(capsys, "simulate", "8", "12", "--tau-max", "1",
                           "--trials", "5")
        assert (code, err) == (0, "")

    def test_help_wraps_at_call_time_columns(self, capsys, monkeypatch):
        parser = _build_parser()
        help_text = {}
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--help"])
            assert exc.value.code == 0
            help_text[columns] = capsys.readouterr().out
        assert _build_parser() is parser
        narrow, wide = help_text["40"], help_text["200"]
        assert narrow.startswith("usage: modfold simulate")
        assert len(narrow.splitlines()) > len(wide.splitlines())
        assert narrow.split() == wide.split()
