import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tameorders
from tameorders import (
    GeneratorConfig,
    cli,
    cummings_blocks,
    format_poset,
    parse_order_pair,
    parse_poset,
    pattern_s_n2,
    poset_json,
    r_lambda,
    random_poset,
    tame,
)
from tameorders.cli import main

from conftest import (
    chain,
    oracle_closure,
    oracle_quartet_r22,
    posets,
    random_generating_set,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_gen(capsys, tmp_path, name, *argv):
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return path


class TestGen:
    def test_round_trips(self, capsys, tmp_path):
        for name, argv, size in [
            ("r4", ["--r-lambda", "4"], 10),
            ("s2", ["--s-n2", "2"], 4),
            ("r22", ["--r22"], 4),
            ("cb3", ["--cummings", "3"], 6),
            ("rnd", ["--random", "6", "0.3", "42"], 6),
        ]:
            path = write_gen(capsys, tmp_path, name, *argv)
            p = parse_poset(path.read_text())
            assert len(p) == size

    def test_gen_matches_library(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r3", "--r-lambda", "3")
        assert parse_poset(path.read_text()) == r_lambda(3)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--s-n2", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["elements"] == ["x0", "x1", "y0", "y1"]

    @pytest.mark.parametrize(
        "argv, build",
        [
            (["--r-lambda", "12"], lambda: r_lambda(12)),
            (["--cummings", "4"], lambda: cummings_blocks(4)),
            (
                ["--random", "70", "0.3", "4"],
                lambda: random_poset(GeneratorConfig(70, 0.3, 4)),
            ),
        ],
    )
    def test_json_is_sorted_dumps_of_library_result(self, capsys, argv, build):
        code, out, _ = run(capsys, "gen", "--json", *argv)
        assert code == 0
        assert out == json.dumps(poset_json(build()), sort_keys=True) + "\n"

    def test_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--r22", "--cummings", "2"])


def test_usage_error_exits_1(capsys):
    # exit 2 is reserved for an exceeded search budget
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 1
    assert "required" in capsys.readouterr().err


class TestCheck:
    def test_not_tame_exit_and_witness(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 3
        assert "not tame" in out
        assert "x0 x1 y0 y1" in out

    def test_tame_output(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r4", "--r-lambda", "4")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "tame rank: 4" in out

    def test_non_reduced_tame_output(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "anti2", "--random", "2", "0", "1")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert out == (
            "tame\ntame rank: 1\n"
            "input is not reduced; run reduce for the canonical embedding\n"
        )

    def test_json(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["tame"] and obj["tame_rank"] == 3
        assert obj["embedding"]["y0"] == [2, 2]

    def test_reversed_relations_reflect_the_embedding(self, capsys, tmp_path):
        # reversing every relation keeps the rank k and maps (m, M) to
        # (k-1-M, k-1-m)
        for name, argv in [("s3", ["--s-n2", "3"]), ("r4", ["--r-lambda", "4"])]:
            path = write_gen(capsys, tmp_path, name, *argv)
            lines = path.read_text().splitlines()
            dual = tmp_path / f"{name}.dual"
            dual.write_text(
                "\n".join(
                    "rel: {2} {1}".format(*line.split()) if line.startswith("rel:") else line
                    for line in lines
                )
                + "\n"
            )
            _, out, _ = run(capsys, "check", "--json", str(path))
            code, dual_out, _ = run(capsys, "check", "--json", str(dual))
            obj, dual_obj = json.loads(out), json.loads(dual_out)
            assert code == 0
            k = obj["tame_rank"]
            assert dual_obj["tame_rank"] == k
            assert dual_obj["embedding"] == {
                x: [k - 1 - big, k - 1 - m] for x, (m, big) in obj["embedding"].items()
            }

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "check", "/nonexistent/x.poset")
        assert code == 1
        assert out == ""
        assert err


class TestRank:
    def test_template(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r4", "--r-lambda", "4")
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert out.strip() == "4"

    def test_not_tame(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, out, err = run(capsys, "rank", str(path))
        assert code == 3
        assert "witness" in err

    def test_not_tame_json(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, out, _ = run(capsys, "rank", str(path), "--json")
        assert code == 3
        obj = json.loads(out)
        assert obj["error"] == "not-tame"
        assert obj["witness"] == ["x0", "x1", "y0", "y1"]


class TestEmbed:
    def test_s22_table(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert "x1 -> (0, 0)" in lines
        assert "x0 -> (0, 1)" in lines
        assert "y1 -> (1, 2)" in lines
        assert "y0 -> (2, 2)" in lines

    def test_text_builds_no_template(self, capsys, tmp_path, monkeypatch):
        # the text form prints the coordinates alone
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        expected = run(capsys, "embed", str(path))

        def no_template(lam):
            raise AssertionError("template built")

        monkeypatch.setattr(tame, "r_lambda", no_template)
        assert run(capsys, "embed", str(path)) == expected

    def test_json(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "embed", str(path), "--json")
        obj = json.loads(out)
        assert obj["map"]["y0"] == "2,2"

    def test_not_reduced(self, capsys, tmp_path):
        path = tmp_path / "anti.poset"
        path.write_text("elements: a b\n")
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3
        assert "reduced" in err


class TestReduce:
    def test_text_output_reparses(self, capsys, tmp_path):
        path = tmp_path / "anti.poset"
        path.write_text("elements: a b c\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        quotient = parse_poset(out)
        assert len(quotient) == 1
        assert "# class 0 (rep a): a b c" in out

    def test_text_class_lines_interleaved(self, capsys, tmp_path):
        path = tmp_path / "p.poset"
        path.write_text("elements: a c b d\nrel: a d\nrel: b d\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert out.splitlines()[-3:] == [
            "# class 0 (rep a): a b",
            "# class 1 (rep c): c",
            "# class 2 (rep d): d",
        ]

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "p.poset"
        path.write_text("elements: a b c\nrel: a c\nrel: b c\n")
        code, out, _ = run(capsys, "reduce", str(path), "--json")
        obj = json.loads(out)
        assert obj["class_of"] == {"a": 0, "b": 0, "c": 1}
        assert obj["representatives"] == ["a", "c"]

    def test_json_is_sorted_dumps_of_library_result(self, capsys, tmp_path):
        """Pre-encoded rows and keys give the bytes of one sorted json.dumps."""
        path = tmp_path / "awkward.poset"
        # 10, "q" and z share their up- and down-sets; "10" sorts before "9"
        path.write_text('elements: 9 10 "q" b\\s é z\nrel: 10 9\nrel: "q" 9\n'
                        'rel: z 9\nrel: b\\s é\n')
        code, out, _ = run(capsys, "reduce", "--json", str(path))
        result = tame.reduce(parse_poset(path.read_text()))
        assert len(result.representatives) < len(result.class_of)
        payload = {
            "quotient": poset_json(result.quotient),
            "class_of": {str(x): c for x, c in result.class_of.items()},
            "representatives": [str(x) for x in result.representatives],
        }
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True) + "\n"


class TestRealize:
    def test_json_shape(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, _ = run(capsys, "realize", str(path))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["w"]) == 4
        assert set(obj["iso"]["map"].values()) == {"x0", "x1", "y0", "y1"}

    def test_not_tame(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r22", "--r22")
        code, _, err = run(capsys, "realize", str(path))
        assert code == 3


class TestVerify:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 0
        assert "19 posets" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--json")
        obj = json.loads(out)
        assert obj == {"n": 2, "total": 3, "tame_count": 3, "counterexamples": []}

    def test_sampled(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--samples", "8", "--seed", "4")
        assert code == 0
        assert "8 posets" in out

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "4", "--budget", "1")
        assert code == 2
        assert "budget" in err

    def test_negative_budget_is_input_error(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "1", "--budget", "-5")
        assert code == 1 and out == ""
        assert "nonnegative" in err
        code, _, err = run(capsys, "verify", "--n", "1", "--budget", "0")
        assert code == 2
        assert "exceeded" in err

    def test_counterexample_lines(self, capsys, corrupt_rank):
        # the raised rank fails minimality on all 120 reduced tame posets;
        # the text report lists the first ten
        code, out, _ = run(capsys, "verify", "--n", "4")
        assert code == 3
        lines = out.splitlines()
        assert lines[0] == "n=4: 219 posets, 207 tame, 120 counterexamples"
        assert len(lines) == 11
        for line in lines[1:]:
            assert re.fullmatch(
                r"  \[\d+\] minimality: embeds into width \d+ < tame rank \d+", line
            )

    def test_too_large_without_opt_in(self, capsys):
        # n = 6 runs with no flag (about 40 s); n = 7 is past the one cap
        code, out, err = run(capsys, "verify", "--n", "7")
        assert code == 1 and out == ""
        assert "capped at 6" in err
        code, out, _ = run(capsys, "verify", "--n", "7", "--json")
        assert code == 1
        assert json.loads(out)["error"] == "size-limit-exceeded"

    def test_exhaustive_is_an_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--exhaustive"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage:") and "unrecognized arguments: --exhaustive" in err

    def test_seed_requires_samples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--seed", "7", "--json"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage:") and "--seed: requires --samples" in err

    def test_samples_without_seed_use_seed_zero(self, capsys):
        _, default, _ = run(capsys, "verify", "--n", "5", "--samples", "4", "--json")
        _, zero, _ = run(capsys, "verify", "--n", "5", "--samples", "4", "--seed", "0", "--json")
        assert default == zero and json.loads(default)["total"] == 4


class TestBadInput:
    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.poset"
        path.write_text("banana\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == ""

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.poset"
        path.write_bytes(b"elements: caf\xe9 b\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == ""
        assert "UTF-8" in err

    def test_gen_random_non_numeric(self, capsys):
        code, out, err = run(capsys, "gen", "--random", "x", "0.5", "1")
        assert code == 1 and out == ""
        assert "--random" in err

    def test_internal_value_error_exits_4(self, capsys, tmp_path, monkeypatch):
        def broken(p):
            raise ValueError("library bug")

        monkeypatch.setattr(tame, "is_tame", broken)
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, err = run(capsys, "check", str(path))
        assert code == 4 and out == ""
        assert "library bug" in err

    def test_cyclic_file(self, capsys, tmp_path):
        path = tmp_path / "cyc.poset"
        path.write_text("elements: a b\nrel: a b\nrel: b a\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1


class TestNoWidthCap:
    """Tame ranks above 64 get answers; the template is as wide as the rank."""

    def run_verbs(self, capsys, path, rank):
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["tame"] and report["tame_rank"] == rank
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0 and out.strip() == str(rank)
        code, out, _ = run(capsys, "realize", str(path), "--json")
        assert code == 0
        return report["embedding"], json.loads(out)["iso"]["map"]

    def test_template_66(self, capsys, tmp_path):
        path = write_gen(capsys, tmp_path, "r66", "--r-lambda", "66")
        embedding, iso = self.run_verbs(capsys, path, 66)
        assert len(embedding) == 66 * 67 // 2
        for label, coordinates in embedding.items():
            assert coordinates == list(parse_order_pair(label))
        assert iso == {f"{label}#0": label for label in embedding}

    def test_chain_90(self, capsys, tmp_path):
        path = tmp_path / "chain90"
        path.write_text(format_poset(chain(90)))
        embedding, iso = self.run_verbs(capsys, path, 90)
        assert embedding == {f"c{i}": [i, i] for i in range(90)}
        assert iso == {f"{i},{i}#0": f"c{i}" for i in range(90)}


class TestLargeInputs:
    """Inputs whose closure took n^2 loop steps before it went topological."""

    def test_antichain_10000(self, capsys, tmp_path):
        labels = [f"a{i}" for i in range(10_000)]
        path = tmp_path / "antichain"
        path.write_text("elements: " + " ".join(labels) + "\n")
        p = parse_poset(path.read_text())
        assert len(p) == 10_000 and p.num_relations == 0
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"tame": True, "tame_rank": 1}

    def test_sparse_order_3000(self, capsys, tmp_path):
        labels, pairs = random_generating_set(random.Random(3000), 3000, 3000)
        related = oracle_closure(labels, pairs)
        path = tmp_path / "sparse"
        path.write_text(
            "elements: " + " ".join(labels) + "\n"
            + "".join(f"rel: {a} {b}\n" for a, b in pairs)
        )
        p = parse_poset(path.read_text())
        assert set(p.pairs()) == related
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 3
        report = json.loads(out)
        assert report["tame"] is False
        x, x2, y, y2 = quad = report["witness"]
        wanted = {(x, y), (x2, y2)}
        assert {(u, v) for u in quad for v in quad if (u, v) in related} == wanted


# two classes of two below one top element
UNREDUCED = "elements: a b c d e\nrel: a c\nrel: b c\nrel: a d\nrel: b d\nrel: c e\nrel: d e\n"


class TestArithmeticTemplates:
    """check and realize decide everything on (m, M) coordinates."""

    FORBIDDEN = [
        ("templates", "r_lambda"),
        ("templates", "inflate"),
        ("poset", "restrict"),
        ("embedding", "verify_embedding"),
        ("tame", "reduce"),
    ]

    def forbid(self, monkeypatch):
        """Make each forbidden function raise in every module that holds it."""
        for module, name in self.FORBIDDEN:
            original = getattr(getattr(tameorders, module), name)

            def called(*args, _name=f"{module}.{name}", **kwargs):
                raise AssertionError(f"{_name} was called")

            for mod in list(sys.modules.values()):
                if mod is not None and mod.__name__.startswith("tameorders"):
                    if getattr(mod, name, None) is original:
                        monkeypatch.setattr(mod, name, called)

    def invocations(self, capsys, tmp_path):
        """check on a reduced tame input, realize on an unreduced one."""
        reduced = write_gen(capsys, tmp_path, "s3", "--s-n2", "3")
        unreduced = tmp_path / "unreduced.poset"
        unreduced.write_text(UNREDUCED)
        return [["check", "--json", str(reduced)], ["realize", "--json", str(unreduced)]]

    def test_no_template_is_built(self, capsys, tmp_path, monkeypatch):
        invocations = self.invocations(capsys, tmp_path)
        expected = [run(capsys, *argv) for argv in invocations]
        assert [code for code, _, _ in expected] == [0, 0]
        self.forbid(monkeypatch)
        assert [run(capsys, *argv) for argv in invocations] == expected

    def test_corrupt_coordinate_exits_4(self, capsys, tmp_path, corrupt_coordinates):
        for argv in self.invocations(capsys, tmp_path):
            code, out, err = run(capsys, *argv)
            assert code == 4
            assert json.loads(out) == {
                "error": "internal-invariant-violation",
                "message": err.strip(),
            }
            assert "recheck" in err


class TestJsonDocument:
    """Under --json every exit prints one compact line of sorted JSON on stdout."""

    def one_document(self, out):
        assert out.count("\n") == 1 and out.endswith("\n")
        obj = json.loads(out)
        assert out == json.dumps(obj, sort_keys=True) + "\n"
        return obj

    def test_every_verb_compact_sorted(self, capsys, tmp_path):
        s2 = str(write_gen(capsys, tmp_path, "s2", "--s-n2", "2"))
        unreduced = tmp_path / "unreduced.poset"
        unreduced.write_text(UNREDUCED)
        for argv in [
            ["check", s2],
            ["check", str(unreduced)],
            ["rank", s2],
            ["embed", s2],
            ["reduce", str(unreduced)],
            ["realize", str(unreduced)],
            ["verify", "--n", "3"],
            ["verify", "--n", "4", "--samples", "3", "--seed", "1"],
            ["gen", "--r-lambda", "3"],
        ]:
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 0
            self.one_document(out)

    def test_exit_1_names_the_error(self, capsys, tmp_path):
        cyclic = tmp_path / "cyc.poset"
        cyclic.write_text("elements: a b\nrel: a b\nrel: b a\n")
        malformed = tmp_path / "bad.poset"
        malformed.write_text("banana\n")
        for argv, kind in [
            (["check", str(cyclic)], "cycle-detected"),
            (["reduce", str(malformed)], "format-error"),
            (["rank", str(tmp_path / "missing")], "file-not-found-error"),
            (["gen", "--random", "x", "0.5", "1"], "invalid-parameter"),
            (["verify", "--n", "1", "--budget", "-5"], "invalid-parameter"),
        ]:
            code, out, err = run(capsys, *argv, "--json")
            assert code == 1
            assert self.one_document(out) == {"error": kind, "message": err.strip()}

    def test_nine_point_samples_are_bounded_by_budget_only(self, capsys):
        # a reduced tame sample of 9 elements gets its minimality check;
        # only --budget bounds the searches
        argv = ["verify", "--n", "9", "--samples", "3", "--seed", "1", "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        obj = self.one_document(out)
        assert (obj["n"], obj["total"], obj["counterexamples"]) == (9, 3, [])
        code, out, err = run(capsys, *argv, "--budget", "0")
        assert code == 2
        assert self.one_document(out) == {
            "error": "budget-exceeded",
            "message": err.strip(),
        }

    def test_nine_point_samples_fit_a_small_budget(self, capsys):
        argv = ["verify", "--n", "9", "--samples", "10", "--seed", "1"]
        code, out, _ = run(capsys, *argv, "--budget", "1000", "--json")
        assert code == 0
        obj = self.one_document(out)
        assert (obj["total"], obj["tame_count"], obj["counterexamples"]) == (10, 5, [])

    def test_exit_2_budget(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "4", "--budget", "0", "--json")
        assert code == 2
        assert self.one_document(out) == {
            "error": "budget-exceeded",
            "message": "embedding search exceeded its node budget",
        }
        assert err.strip() == "embedding search exceeded its node budget"

    def test_exit_3_payloads_keep_their_keys(self, capsys, tmp_path):
        r22 = str(write_gen(capsys, tmp_path, "r22", "--r22"))
        anti = tmp_path / "anti.poset"
        anti.write_text("elements: a b\n")
        witness = ["x0", "x1", "y0", "y1"]
        for argv, payload in [
            (["rank", r22], {"error": "not-tame", "witness": witness}),
            (["realize", r22], {"error": "not-tame", "witness": witness}),
            (["embed", str(anti)], {"error": "not-reduced"}),
            (["check", r22], {"tame": False, "witness": witness}),
        ]:
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 3
            assert self.one_document(out) == payload

    def test_exit_4_internal(self, capsys, tmp_path, monkeypatch):
        def broken(p):
            raise ValueError("library bug")

        monkeypatch.setattr(tame, "is_tame", broken)
        path = write_gen(capsys, tmp_path, "s2", "--s-n2", "2")
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == 4
        assert self.one_document(out) == {
            "error": "value-error",
            "message": "library bug",
        }
        assert err.strip() == "library bug"

    def test_usage_error_prints_no_document(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--json"])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""


FILE_VERBS = ("check", "rank", "embed", "reduce", "realize")


@st.composite
def cli_files(draw):
    """File bytes and, per file verb, the documented exit code and error kind.

    Valid files get their codes from brute-force oracles: tame when no four
    elements induce two disjoint 2-chains, reduced when no two elements
    share their down-set and up-set.
    """
    p = draw(posets(max_size=6))
    kind = draw(
        st.sampled_from(
            [
                "valid", "duplicate rel", "huge label", "malformed", "cyclic",
                "empty", "non-UTF-8", "duplicate id", "unknown id",
            ]
        )
    )
    names = {x: x for x in p.elements}
    if kind == "huge label" and names:
        names[draw(st.sampled_from(p.elements))] = "L" * draw(st.integers(1000, 100_000))
    lines = ["elements: " + " ".join(names.values())]
    lines += [f"rel: {names[x]} {names[y]}" for x, y in p.pairs()]
    head = names and next(iter(names.values()))
    if kind == "duplicate rel":
        lines += draw(st.lists(st.sampled_from(lines[1:] or [""]), min_size=1, max_size=3))
    elif kind == "malformed":
        bad = draw(st.sampled_from(["banana", "rel: a", "rel: a b c", "elements: z"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    elif kind == "cyclic":
        x, y = draw(st.sampled_from(p.pairs() or [(head or "q", head or "q")]))
        lines[0] += "" if head else " q"
        lines.append(f"rel: {y} {x}")
    elif kind == "empty":
        lines = draw(st.sampled_from([[], [""], ["# no elements line"]]))
    elif kind == "duplicate id":
        lines[0] += f" {head or 'q q'}"
    elif kind == "unknown id":
        lines.append(f"rel: {head or 'stranger'} stranger")
    data = "".join(line + "\n" for line in lines).encode()
    if kind == "non-UTF-8":
        data = data.replace(b"elements:", b"elements: caf\xe9", 1)
    error = {
        "malformed": "format-error",
        "cyclic": "cycle-detected",
        "empty": "format-error",
        "non-UTF-8": "format-error",
        "duplicate id": "duplicate-element",
        "unknown id": "unknown-element",
    }.get(kind)
    if error is not None:
        return data, {verb: (1, error) for verb in FILE_VERBS}
    tame = oracle_quartet_r22(p) is None
    signatures = {
        (
            frozenset(z for z in p.elements if p.less(z, x)),
            frozenset(z for z in p.elements if p.less(x, z)),
        )
        for x in p.elements
    }
    expected = {verb: (0, None) if tame else (3, "not-tame") for verb in FILE_VERBS}
    expected["reduce"] = (0, None)
    if tame and len(signatures) < len(p):
        expected["embed"] = (3, "not-reduced")
    return data, expected


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(cli_files())
@settings(max_examples=60)
def test_every_file_verb_prints_one_document(case):
    """Documented exit code, one JSON line on stdout, and the same bytes on a repeat."""
    data, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.poset"
        path.write_bytes(data)
        for verb in FILE_VERBS:
            argv = [verb, "--json", str(path)]
            code, out, err = first = call(argv)
            assert call(argv) == first
            assert (code, out.count("\n"), out[-1:]) == (expected[verb][0], 1, "\n")
            document = json.loads(out)
            assert out == json.dumps(document, sort_keys=True) + "\n"
            if code == 1:
                assert document == {"error": expected[verb][1], "message": err.strip()}
            elif verb == "check":
                assert document["tame"] is (code == 0)
            elif code == 3:
                assert document["error"] == expected[verb][1]


VERBS = ("check", "rank", "embed", "reduce", "realize", "verify", "gen")

# "FILE" stands for a tame input, "R22" for a non-tame one
PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["chk", "FILE"], ["--json", "check", "FILE"],
    ["--", "check", "FILE"],
    *(
        argv
        for verb in FILE_VERBS
        for argv in (
            [verb], [verb, "-h"], [verb, "--json", "-h"], [verb, "FILE"],
            [verb, "--json", "FILE"], [verb, "R22", "--json"], [verb, "FILE", "extra"],
            [verb, "--bogus", "FILE"], [verb, "--budget", "x", "FILE"],
            [verb, "--budget", "0", "FILE"], [verb, "--json"],
        )
    ),
    ["verify"], ["verify", "-h"], ["verify", "--n", "3", "--json"],
    ["verify", "--n", "3", "extra"], ["verify", "--n", "3", "--bogus"],
    ["verify", "--n", "x"], ["verify", "--n", "3", "--seed", "7"],
    ["verify", "--n", "3", "--exhaustive", "--samples", "2"],
    ["verify", "--n", "4", "--samples", "3", "--seed", "2"],
    ["verify", "--n", "4", "--budget", "1", "--json"],
    ["gen"], ["gen", "-h"], ["gen", "--r22"], ["gen", "--r22", "--json"],
    ["gen", "--r22", "extra"], ["gen", "--s-n2", "2", "--bogus"],
    ["gen", "--r22", "--cummings", "2"], ["gen", "--random", "5", "a", "1"],
    ["gen", "--random", "5", "0.3", "1", "--budget", "0"],
]


def outcome(argv):
    """Exit code (or the SystemExit code, tagged), stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    files = {"FILE": root / "s2.poset", "R22": root / "r22.poset"}
    files["FILE"].write_text(format_poset(pattern_s_n2(2)))
    files["R22"].write_text(format_poset(tameorders.pattern_r22()))
    return {name: str(path) for name, path in files.items()}


class TestParserPerVerb:
    """main builds only the invoked verb's subparser, with the same behaviour."""

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_same_as_full_parser(self, argv, corpus_files, monkeypatch):
        argv = [corpus_files.get(arg, arg) for arg in argv]
        got = outcome(argv)
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda verb=None: full())
        assert got == outcome(argv)

    def test_corpus_covers_every_verb(self):
        for verb in VERBS:
            cases = [argv[1:] for argv in PARSER_CORPUS if argv[:1] == [verb]]
            assert ["-h"] in cases and [] in cases
            assert any("--bogus" in case for case in cases)
            assert any("extra" in case for case in cases)

    def test_one_subparser_per_verb(self):
        def choices(parser):
            (sub,) = [
                action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
            ]
            return list(sub.choices)

        for verb in VERBS:
            assert choices(cli._build_parser(verb)) == [verb]
        assert choices(cli._build_parser()) == list(VERBS)
        assert choices(cli._build_parser("bogus")) == list(VERBS)

    def test_negative_budget_rejected_by_every_verb(self, corpus_files):
        message = "node budget must be nonnegative, got -1"
        for verb, rest in {
            **{verb: [corpus_files["FILE"]] for verb in FILE_VERBS},
            "verify": ["--n", "3"],
            "gen": ["--r22"],
        }.items():
            code, out, err = outcome([verb, *rest, "--budget", "-1", "--json"])
            assert code == 1, verb
            assert json.loads(out) == {"error": "invalid-parameter", "message": message}
            assert err == message + "\n"
            assert outcome([verb, *rest, "--budget", "-1"]) == (1, "", message + "\n")
            if verb != "verify":
                assert outcome([verb, *rest, "--budget", "0"])[0] == 0, verb


def test_module_entry_point_reads_sys_argv(corpus_files):
    src = str(Path(tameorders.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "tameorders", *argv],
            capture_output=True, check=False, env=env, text=True,
        )

    for argv in (
        ["check", "--json", corpus_files["FILE"]],
        ["verify", "--n", "2", "--json"],
        ["gen", "--r22"],
    ):
        child = run_module(*argv)
        assert (child.returncode, child.stdout, child.stderr) == outcome(argv)
    child = run_module()
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.startswith("usage: tameorders")
    assert child.stderr.endswith("error: the following arguments are required: verb\n")
    child = run_module("-h")
    assert child.returncode == 0 and child.stdout.startswith("usage: tameorders")
