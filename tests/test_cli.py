import argparse
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from modfold import cli
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

    def test_reference_bounds_only_on_depth_two(self, capsys, monkeypatch):
        # the plan's depth, not an exception, decides whether the
        # reference lines are made, so a fault inside the call surfaces
        def broken(tree, moduli):
            raise ValueError("reference bounds failed")

        monkeypatch.setattr(cli, "per_group_reference_bounds", broken)
        code, out, err = run(
            capsys, "bounds", "135", "180", "162", "--grouping", "[[0,1],[2]]"
        )
        assert (code, out) == (2, "")
        assert err == "error: reference bounds failed\n"
        for grouping in ("[0,1,2]", "[[[0],[1]],[2]]"):
            code, out, _ = run(
                capsys, "bounds", "135", "180", "162", "--grouping", grouping
            )
            assert code == 0
            assert "reference group" not in out

    def test_structural_fault_before_index_fault(self, capsys):
        code, out, err = run(
            capsys, "bounds", "8", "12", "15", "--grouping", "[[0,5],[1,1]]"
        )
        assert (code, out) == (2, "")
        assert err == "error: a leaf repeats an index\n"

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


    def test_shared_index(self, capsys):
        # the occurrences of index 2 disagree, then agree
        argv = ("reconstruct", "135", "180", "162", "--grouping",
                "[[0,2],[1,2]]", "--remainders")
        code, out, _ = run(capsys, *argv, "76", "163", "-7")
        assert code == 1
        assert out == (
            "verdict: inconsistent (conflicting folding numbers for "
            "modulus index 2)\n"
        )
        code, out, _ = run(capsys, *argv, "95", "144", "127")
        assert code == 0
        assert out.splitlines()[:2] == ["estimate: 1584", "folding: 11 8 9"]

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
            # symmetric and unclamped, over two blocks from a negative
            # seed: certified and checked levels, violations and failures
            (
                "tests/expected/symmetric_135_180_162.csv",
                "135 180 162 --tau-max 16 --trials 1500 --seed -7"
                " --error-model symmetric",
            ),
            (
                "tests/expected/symmetric_depth3_192_288_216_360_320_448.csv",
                "192 288 216 360 320 448 --tau-max 24 --trials 1500"
                " --seed -7 --error-model symmetric"
                " --grouping [[[0,1],[2,3]],[4,5]]",
            ),
            # a shared index: hundreds of folding failures at levels
            # 13-20, and errors past 1,600 from failing trials whose
            # root estimate is kept
            (
                "tests/expected/shared_135_180_162.csv",
                "135 180 162 --grouping [[0,2],[1,2]] --tau-max 20"
                " --trials 1500 --seed 3",
            ),
            # a clamped tree over two blocks: levels 0-11 certified,
            # 12-24 checked, with violations and folding failures
            (
                "tests/expected/clamped_tree_135_180_162.csv",
                "135 180 162 --grouping [[0,1],[2]] --tau-max 24"
                " --trials 1500 --seed 5 --error-model symmetric --clamp",
            ),
            # 121 clamped levels: families of 12 levels down to single
            # ones, reduced blocks and raw ones
            (
                "tests/expected/long_clamped_135_180_162.csv",
                "135 180 162 --tau-max 120 --trials 300 --seed 11"
                " --error-model symmetric --clamp",
            ),
            # 161-digit moduli: means past the float range, and the
            # plan's generated solve, each trial's anchor and the
            # checked levels' failing trials, on 161-digit constants
            (
                "tests/expected/past_float_range_6_1e160.csv",
                f"6 {10**160 + 7} {10**160 + 9} --tau-max 3 --trials 20"
                " --error-model symmetric",
            ),
        ],
        ids=[
            "single", "tree", "depth3", "clamped", "symmetric",
            "symmetric_depth3", "shared", "clamped_tree", "long_clamped",
            "past_float_range",
        ],
    )
    def test_golden_csv(self, capsys, golden, argv):
        # the sweeps CI compares with cmp, byte for byte, run in-process
        code, out, err = run(capsys, "simulate", *argv.split())
        assert (code, err) == (0, "")
        assert out.encode() == (ROOT / golden).read_bytes()

    def test_endless_sweep_hits_the_level_cap(self, capsys):
        code, out, err = run(
            capsys, "simulate", "4", "6", "--tau-max",
            "100000000000000000000", "--trials", "1",
        )
        assert (code, out) == (3, "")
        assert err == "error: a sweep takes at most 100000 error levels\n"

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
        assert err == (
            "error: grouping is not valid JSON: Expecting value at "
            "character 0\n"
        )

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


    def test_invalid_int_is_echoed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "135", "abc", "162"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("argument moduli: invalid int value: 'abc'\n")

    def test_int_past_the_digit_limit_is_not_echoed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "7" * 5000, "5"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(
            "argument moduli: invalid int value: an argument of 5000 "
            "characters; the CLI takes at most 4300 digits\n"
        )
        assert len(out.err) < 300

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


# the argv fuzz test's pools: each argv is built from valid parts, and
# about half the argvs take one part from a hostile pool instead
FUZZ_MODULI = (
    ["135", "180", "162"], ["8", "12", "15"], ["70", "75", "80", "90"],
    ["12", "18", "35"], ["192", "288", "216", "360", "320", "448"],
    ["3", "5"],
)
FUZZ_HOSTILE_MODULI = (
    ["0", "5"], ["-4", "6"], ["6", "6", "9"], ["4", "8", "12"], ["7"],
    ["1" + "0" * 4400, "3"], [str(10**160 + 7), str(10**160 + 9), "6"],
    [str(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59)],
)
# valid plans by moduli count
FUZZ_GROUPINGS = {
    2: ("[[0],[1]]", "[0,1]"),
    3: ("[[0,1],[2]]", "[[0,2],[1,2]]", "[0,1,2]", "[[[0],[1]],[2]]"),
    4: ("[[0,1],[2,3]]", "[[0,1],[1,2,3]]"),
    6: ("[[[0,1],[2,3]],[4,5]]", "[[0,1,2],[3,4],[5]]"),
}
FUZZ_HOSTILE_GROUPINGS = (
    "[[0,1],[2]", "", "{}", "null", "[]", '"x"', "[[0,0],[1,2]]",
    "[[0,1],[9]]", "[[0.0,1],[2]]", "[[true,1],[2]]", "[[0,1],[2.5]]",
    "[" * 3000 + "0,1" + "]" * 3000, "[[[0,1],[0,1]],[2]]",
)
# within, at and past the level cap, and a negative level
FUZZ_TAU_MAX = ("0", "1", "3", "30")
FUZZ_HOSTILE_TAU_MAX = ("-3", "100000", str(10**20), "1" + "0" * 4400)
FUZZ_TRIALS = ("1", "3", "5")
FUZZ_HOSTILE_TRIALS = ("0", "-2", "2.5")


def fuzz_argv(rng):
    """One argv for cli.main: a command over valid parts, then, half the
    time, one of its parts made hostile."""
    command = rng.choice(("bounds", "reconstruct", "group", "simulate"))
    parts = {
        "bounds": ("moduli", "grouping"),
        "reconstruct": ("moduli", "grouping", "remainders"),
        "group": ("moduli",),
        "simulate": ("moduli", "grouping", "tau", "trials"),
    }[command]
    hostile = rng.choice(parts) if rng.random() < 0.5 else None
    moduli = rng.choice(
        FUZZ_HOSTILE_MODULI if hostile == "moduli" else FUZZ_MODULI
    )
    argv = [command, *moduli]
    grouping = None
    if hostile == "grouping":
        grouping = rng.choice(FUZZ_HOSTILE_GROUPINGS)
    elif "grouping" in parts and rng.random() < 0.5:
        grouping = rng.choice(FUZZ_GROUPINGS.get(len(moduli), ("[0]",)))
    if grouping is not None:
        argv += ["--grouping", grouping]
    if command == "reconstruct":
        # a hostile moduli set gets remainders of the first valid one
        valid = moduli if moduli in FUZZ_MODULI else FUZZ_MODULI[0]
        n = rng.randrange(10**6)
        spread = rng.choice((0, 2, 20, 200, 5000))
        count = len(valid)
        if hostile == "remainders":
            count += rng.choice((-count, -1, 1))
        rs = [
            n % int(m) + rng.randint(-spread, spread)
            for m in (valid * 2)[:count]
        ]
        argv += ["--remainders", *map(str, rs)]
        if grouping is None and rng.random() < 0.3:
            argv += ["--reference", str(rng.randint(-1, len(moduli)))]
    elif command == "group":
        if rng.random() < 0.5:
            argv.append("--share-reference")
    elif command == "simulate":
        taus = FUZZ_HOSTILE_TAU_MAX if hostile == "tau" else FUZZ_TAU_MAX
        trials = FUZZ_HOSTILE_TRIALS if hostile == "trials" else FUZZ_TRIALS
        argv += ["--tau-max", rng.choice(taus), "--trials", rng.choice(trials),
                 "--seed", str(rng.choice((-7, 0, 3, 2**70)))]
        if rng.random() < 0.5:
            argv += ["--error-model", rng.choice(("symmetric", "one-sided"))]
        if rng.random() < 0.3:
            argv.append("--clamp")
    return argv


class TestArgvFuzz:
    """cli.main's exit contract over seeded random argvs, in-process: an
    exit code in {0, 1, 2, 3}, argparse's SystemExit(2) the one exception
    that escapes, no stdout on a failure but reconstruct's verdict, and
    stderr opening with error: or usage: on invalid input or a cap."""

    def test_exit_contract(self, capsys):
        rng = random.Random(1901)
        codes = Counter()
        for _ in range(400):
            argv = fuzz_argv(rng)
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = "usage"
            captured = capsys.readouterr()
            out, err = captured.out, captured.err
            codes[code] += 1
            if code == "usage":
                code = 2
            assert code in (0, 1, 2, 3), argv
            if code == 0:
                assert out and err == "", argv
            elif code == 1 and argv[0] == "reconstruct":
                lines = out.splitlines()
                assert lines and lines[0].startswith(
                    "verdict: inconsistent ("
                ), argv
                assert all(
                    line.startswith("partial estimate: ") for line in lines[1:]
                ), argv
            else:
                assert out == "", argv
            if code in (2, 3):
                assert err.startswith(("error:", "usage:")), argv
        # every exit code, and argparse's exit, is reached
        assert min(codes[c] for c in (0, 1, 2, 3, "usage")) >= 10, codes
