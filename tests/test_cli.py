import contextlib
import hashlib
import io
import itertools
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
    cli,
    cummings_blocks,
    format_poset,
    parse_poset,
    pattern_s_n2,
    poset_json,
    r_lambda,
    random_poset,
    tame,
    templates,
)
from tameorders.cli import main

from conftest import (
    chain,
    oracle_closure,
    oracle_point,
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
                lambda: random_poset(70, 0.3, 4),
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

        monkeypatch.setattr(templates, "r_lambda", no_template)
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

    def test_counterexample_document_bytes(self, corrupt_rank):
        # the raised rank fails minimality on the 120 reduced tame posets;
        # each counterexample is its index, check and detail plus the
        # checked poset's ids and relations
        code, out, _ = call(["verify", "--json", "--n", "4"])
        assert code == 3 and len(out.encode()) == 21976
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b04a2f42db1a6d4cb76510b21231ec62e45a07190eafaae70e826dbe94b55608"
        )
        first = json.loads(out)["counterexamples"][0]
        assert sorted(first) == ["check", "detail", "elements", "index", "relations"]

    def test_too_large_without_opt_in(self, capsys):
        # n = 7 runs with no flag (minutes); n = 8 is past the one cap
        code, out, err = run(capsys, "verify", "--n", "8")
        assert code == 1 and out == ""
        assert "capped at 7" in err
        code, out, _ = run(capsys, "verify", "--n", "8", "--json")
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

    @pytest.mark.parametrize(
        "n, prob, message",
        [
            ("5", "2", "edge probability must lie in [0, 1]"),
            ("-1", "0.5", "element count must be nonnegative"),
        ],
    )
    def test_gen_random_out_of_range(self, capsys, n, prob, message):
        code, out, err = run(capsys, "gen", "--random", n, prob, "1")
        assert code == 1 and out == ""
        assert err.strip() == message

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
            assert coordinates == list(oracle_point(label))
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
    """The usage corpus covers every verb, and each verb refuses what it does not take."""

    def test_corpus_covers_every_verb(self):
        for verb in VERBS:
            cases = [argv[1:] for argv in PARSER_CORPUS if argv[:1] == [verb]]
            assert ["-h"] in cases and [] in cases
            assert any("--bogus" in case for case in cases)
            assert any("extra" in case for case in cases)

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_usage_matches_the_help(self, argv, corpus_files):
        # a usage error prints the usage of the parser that names itself in
        # the error line, the same block that parser's -h opens with; the
        # top-level usage lists every verb; the verbs that run print per the
        # exit-code contract
        code, out, err = outcome([corpus_files.get(arg, arg) for arg in argv])
        own = ["tameorders", *argv[:1]] if argv[:1] and argv[0] in VERBS else ["tameorders"]
        if code == ("exit", cli.EXIT_INPUT):
            rest, sep, message = err.rpartition(": error: ")
            usage, _, prog = rest.rpartition("\n")
            assert (out, sep, message.count("\n")) == ("", ": error: ", 1), err
            assert prog in {"tameorders", " ".join(own)}, err
            help_out = outcome([*prog.split()[1:], "-h"])[1]
            assert usage == help_out.partition("\n\n")[0], err
        elif code == ("exit", 0):
            assert err == "", err
            assert out.startswith(f"usage: {' '.join(own)} [-h]"), out
        else:
            assert code in {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_BUDGET, cli.EXIT_NEGATIVE}
            assert code != cli.EXIT_OK or err == "", err
            if "--json" in argv:
                assert out.count("\n") == 1 and json.loads(out), out
        if (err or out).startswith("usage: tameorders [-h]"):
            assert "{" + ",".join(VERBS) + "}" in (err or out).partition("\n\n")[0]

    def test_one_subparser_per_verb(self):
        import argparse

        (sub,) = [
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(sub.choices) == list(VERBS)
        assert [sub.choices[verb].prog for verb in VERBS] == [f"tameorders {v}" for v in VERBS]

    def test_negative_budget_rejected_by_every_verb(self, corpus_files):
        # verify, the one verb that searches, refuses a negative budget as an
        # invalid parameter; the others take no --budget at all
        message = "node budget must be nonnegative, got -1"
        argv = ["verify", "--n", "3", "--budget", "-1"]
        code, out, err = outcome([*argv, "--json"])
        assert code == 1
        assert json.loads(out) == {"error": "invalid-parameter", "message": message}
        assert err == message + "\n"
        assert outcome(argv) == (1, "", message + "\n")
        for verb, rest in {
            **{verb: [corpus_files["FILE"]] for verb in FILE_VERBS},
            "gen": ["--r22"],
        }.items():
            for budget in ("-1", "0"):
                for flags in ([], ["--json"]):
                    code, out, err = outcome([verb, *rest, *flags, "--budget", budget])
                    assert (code, out) == (("exit", 1), ""), verb
                    assert err.startswith("usage: tameorders "), verb
                    assert err.endswith(
                        f"error: unrecognized arguments: --budget {budget}\n"
                    ), verb



def verify_forms():
    """Every well-formed verify argv over --n 3 and four optional options, in every order."""
    groups = [["--json"], ["--budget", "500"], ["--samples", "2"], ["--seed", "1"]]
    for k in range(len(groups) + 1):
        for chosen in itertools.combinations(groups, k):
            if ["--seed", "1"] in chosen and ["--samples", "2"] not in chosen:
                continue
            for order in itertools.permutations([["--n", "3"], *chosen]):
                yield ["verify", *itertools.chain(*order)]


GEN_FORMS = [
    ["--r-lambda", "3"], ["--s-n2", "2"], ["--r22"], ["--cummings", "2"],
    ["--random", "5", "0.3", "1"],
]

# well-formed argvs: the recognizer answers them without argparse
VALID_ARGVS = [
    *([verb, *rest] for verb in FILE_VERBS
      for rest in (["FILE"], ["--json", "FILE"], ["FILE", "--json"], ["R22"])),
    *verify_forms(),
    *(["gen", *rest] for form in GEN_FORMS for rest in (form, ["--json", *form], [*form, "--json"])),
    ["check", ""], ["gen", "--random", "", "", ""], ["verify", "--n", " 3 "],
    ["verify", "--n", "1_0", "--samples", "2"],
    # recognized; the verb itself refuses --seed without --samples
    ["verify", "--n", "3", "--seed", "7"],
]

# each kind of argv the recognizer leaves to argparse
DECLINED_ARGVS = [
    # help
    ["check", "--help", "FILE"], ["verify", "--n", "3", "-h"], ["gen", "--r22", "--help"],
    # abbreviations and --opt=value
    ["check", "--js", "FILE"], ["verify", "--n", "3", "--samp", "2"], ["gen", "--r-l", "3"],
    ["verify", "--n=3"], ["gen", "--s-n2=2"], ["check", "--json=1", "FILE"],
    # --
    ["check", "--", "FILE"], ["verify", "--n", "3", "--", "--json"], ["gen", "--r22", "--"],
    # a repeated option
    ["check", "--json", "--json", "FILE"], ["verify", "--n", "3", "--n", "4"],
    ["gen", "--r22", "--r22"], ["gen", "--s-n2", "2", "--s-n2", "3"],
    # a positional or value that starts with a dash
    ["check", "-"], ["check", "-1"], ["verify", "--n", "3", "--budget", "-1"],
    ["verify", "--n", "-2"], ["gen", "--random", "5", "0.3", "-1"], ["verify", "--n", "--json"],
    # a missing value or a wrong positional count
    ["verify", "--n"], ["gen", "--random", "5", "0.3"], ["check"], ["check", "FILE", "R22"],
    ["verify", "--n", "3", "extra"], ["gen", "--r22", "extra"],
    # a value its converter rejects
    ["verify", "--n", "x"], ["verify", "--n", "3", "--samples", "2.5"], ["gen", "--cummings", ""],
    # a missing required option
    ["verify", "--json"], ["verify", "--samples", "2"],
    # gen without exactly one of its group
    ["gen"], ["gen", "--json"], ["gen", "--r22", "--s-n2", "2"],
    # no verb
    [], ["--json", "check", "FILE"], ["chk", "FILE"],
]


def declining(argv):
    return None


class TestRecognizer:
    """Well-formed argvs skip argparse; every outcome is argparse's."""

    @pytest.mark.parametrize("argv", PARSER_CORPUS + VALID_ARGVS + DECLINED_ARGVS, ids=" ".join)
    def test_same_outcome_without_recognizer(self, argv, corpus_files, monkeypatch):
        argv = [corpus_files.get(arg, arg) for arg in argv]
        got = outcome(argv)
        monkeypatch.setattr(cli, "_recognize", declining)
        assert got == outcome(argv)

    def test_same_namespace_as_argparse(self):
        for argv in VALID_ARGVS:
            recognized = cli._recognize(argv)
            assert recognized is not None, argv
            assert vars(recognized) == vars(cli._build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize("argv", DECLINED_ARGVS, ids=" ".join)
    def test_declines(self, argv):
        assert cli._recognize(argv) is None

    def test_valid_corpus_reaches_every_verb(self):
        assert {argv[0] for argv in VALID_ARGVS} == set(VERBS)

    def test_benchmark_shapes_build_no_parser(self, corpus_files, monkeypatch):
        shapes = [
            ["check", "--json", corpus_files["FILE"]],
            ["verify", "--json", "--n", "5"],
            ["verify", "--json", "--n", "7", "--samples", "6", "--seed", "3"],
        ]
        expected = [outcome(argv) for argv in shapes]

        def no_parser():
            raise AssertionError("argparse parser built")

        monkeypatch.setattr(cli, "_build_parser", no_parser)
        for argv, want in zip(shapes, expected):
            code, out, err = got = outcome(argv)
            assert (code, err) == (0, ""), argv
            assert json.loads(out)
            assert got == want

    def test_seed_error_prints_the_verify_usage(self):
        # _cmd_verify raises this one usage error itself, through the table
        _, _, seed_err = outcome(["verify", "--n", "3", "--seed", "7"])
        _, _, missing_err = outcome(["verify", "--json"])
        usage, _, message = seed_err.partition("tameorders verify: error: ")
        assert message == "argument --seed: requires --samples\n"
        assert usage == missing_err.partition("tameorders verify: error: ")[0]
        assert usage.startswith("usage: tameorders verify [-h] [--json] --n N")

def run_child(*argv, stdout=subprocess.PIPE):
    """A fresh interpreter with argv, importing tameorders from this checkout.

    PYTHONUNBUFFERED is left out of the child's environment, so its stdout
    on a pipe is block-buffered, as by default; pass ``-u`` in argv to
    unbuffer it.
    """
    src = str(Path(tameorders.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        check=False,
        env=env,
        text=True,
    )


def test_module_entry_point_reads_sys_argv(corpus_files):
    def run_module(*argv):
        return run_child("-m", "tameorders", *argv)

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


def test_out_of_memory_is_one_typed_document():
    # the child lowers its own address-space limit to 200 MB, then asks gen
    # for R_400: 80200 elements, about 1.07e9 relations
    program = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20, hard))\n"
        "from tameorders.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    for tail in (["--json"], []):
        child = run_child("-c", program, "gen", "--r-lambda", "400", *tail)
        assert child.returncode == 1
        assert child.stderr == "out of memory\n"
        if tail:
            assert child.stdout.count("\n") == 1
            doc = {"error": "memory-error", "message": "out of memory"}
            assert json.loads(child.stdout) == doc
        else:
            assert child.stdout == ""


def test_unencodable_label_is_an_output_error(tmp_path):
    # a stdout whose encoding cannot write a label fails like any other
    # stdout write: exit 1 and one stderr line, the lines before it kept;
    # --json escapes every non-ASCII label, so it prints and exits 0
    accented = tmp_path / "accented.poset"
    accented.write_text("elements: é b\nrel: é b\n", encoding="utf-8")
    program = (
        "import sys\n"
        "sys.stdout.reconfigure(encoding='ascii')\n"
        "from tameorders.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    for verb in ("check", "reduce", "embed"):
        child = run_child("-c", program, verb, str(accented))
        assert child.returncode == 1, verb
        assert child.stderr.startswith("'ascii' codec can't encode character '\\xe9'")
        assert child.stderr.count("\n") == 1
        if verb == "check":
            assert child.stdout == "tame\ntame rank: 2\ncanonical embedding:\n"
        child = run_child("-c", program, verb, "--json", str(accented))
        assert (child.returncode, child.stderr) == (0, ""), verb
        assert "\\u00e9" in child.stdout and child.stdout.count("\n") == 1


def test_closed_stdout_is_one_stderr_line(corpus_files, tmp_path):
    # stdout is a pipe whose reader has gone: the first write to the pipe
    # raises BrokenPipeError, and no error document can follow it there.
    # Block-buffered, that write comes when main flushes, or for gen's
    # R_12 (14 KB) when the 8 KiB buffer fills; unbuffered (-u), at once.
    one = tmp_path / "one.poset"
    one.write_text(format_poset(chain(1)))
    cycle = tmp_path / "cycle.poset"
    cycle.write_text("elements: a b\nrel: a b\nrel: b a\n")
    cases = [
        (["gen", "--json", "--r-lambda", "3"], "[Errno 32] Broken pipe"),
        (["gen", "--r-lambda", "3"], "[Errno 32] Broken pipe"),
        (["gen", "--json", "--r-lambda", "12"], "[Errno 32] Broken pipe"),
        (["gen", "--r-lambda", "12"], "[Errno 32] Broken pipe"),
        (["check", "--json", str(one)], "[Errno 32] Broken pipe"),
        (["check", "--json", corpus_files["R22"]], "[Errno 32] Broken pipe"),
        (["verify", "--json", "--n", "3"], "[Errno 32] Broken pipe"),
        (["verify", "--n", "3"], "[Errno 32] Broken pipe"),
        # an error found before any output keeps its own message
        (["check", "--json", str(cycle)], "closure relates 'a' to itself"),
    ]
    for flags, (argv, message) in itertools.product([[], ["-u"]], cases):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = run_child(*flags, "-m", "tameorders", *argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (1, message + "\n"), (flags, argv)
    if os.path.exists("/dev/full"):
        # every write to it fails with ENOSPC: the same one line, its own errno
        for flags, argv in itertools.product([[], ["-u"]], [c[0] for c in cases[:4]]):
            with open("/dev/full", "w") as full:
                child = run_child(*flags, "-m", "tameorders", *argv, stdout=full)
            assert (child.returncode, child.stderr) == (
                1, "[Errno 28] No space left on device\n"), (flags, argv)


class TestPinnedBytes:
    """SHA-256 digests of CLI output, unchanged since they were first taken.

    A change that moves one byte of what these argvs print fails here; if
    the move is meant, the digest is retaken and the reason recorded.
    """

    def test_verify_sweep_stdout(self):
        # the benchmark's verify_sweep op set, in its declared order
        digest = hashlib.sha256(call(["verify", "--json", "--n", "5"])[1].encode())
        for seed in range(1, 100):
            argv = ["verify", "--json", "--n", "7", "--samples", "6", "--seed", str(seed)]
            digest.update(call(argv)[1].encode())
        assert digest.hexdigest() == (
            "79c221f59d1575611c7e0643ec5e701e16c1f31d447bc3ca91eedaa0c4701139"
        )

    def test_label_corpus(self, tmp_path):
        # 216 records: gen with and without --json, then every file verb,
        # text and --json, on that gen output; the file's path reads "IN"
        sources = [["--r-lambda", str(k)] for k in (0, 1, 3, 6, 9)]
        sources += [["--cummings", str(k)] for k in (1, 3, 5)]
        sources += [["--s-n2", str(k)] for k in (1, 4, 9)]
        sources += [["--r22"]]
        sources += [["--random", "12", p, s] for p in ("0.1", "0.3", "0.8") for s in "12"]
        path = str(tmp_path / "in.poset")
        digest, records = hashlib.sha256(), 0
        for source in sources:
            for argv in (["gen", *source], ["gen", *source, "--json"]):
                digest.update(json.dumps([argv, *call(argv)]).encode() + b"\n")
                records += 1
            Path(path).write_text(call(["gen", *source])[1])
            for verb in ("check", "rank", "embed", "reduce", "realize"):
                for tail in ([], ["--json"]):
                    code, out, err = call([verb, path, *tail])
                    out, err = out.replace(path, "IN"), err.replace(path, "IN")
                    record = [[verb, "IN", *tail], code, out, err]
                    digest.update(json.dumps(record).encode() + b"\n")
                    records += 1
        assert records == 216
        assert digest.hexdigest() == (
            "b4fa2a6692771d7a4d494e89ae4f8e108f21240f32f77d79f33c8d4874e24b1c"
        )

    def test_wide_quotients(self, tmp_path):
        # reduce, text and --json, on random orders wider than 64 whose
        # classes merge: a dense one and a sparse one with isolated elements
        path = str(tmp_path / "in.poset")
        digest = hashlib.sha256()
        for n, prob, seed in (("100", "0.5", "1"), ("150", "0.01", "1")):
            Path(path).write_text(call(["gen", "--random", n, prob, seed])[1])
            code, out, err = call(["reduce", path, "--json"])
            assert code == 0 and err == ""
            assert int(n) > len(json.loads(out)["quotient"]["elements"]) > 64
            digest.update(out.encode())
            digest.update(json.dumps(call(["reduce", path])).encode())
        assert digest.hexdigest() == (
            "23afb5111b8378ad6f5390c130af26aba8b108f96b7fda3b86ac81b8ba730c20"
        )
