"""Exit codes, output shapes, and determinism of the command line."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import liebranch
from liebranch.cli import main
from liebranch.embeddings import data_dir_default

FLAG_DIMS = {
    "G2": "5 5",
    "F4": "15 20 20 15",
    "E6": "16 21 25 29 25 16",
    "E7": "33 42 47 53 50 42 27",
    "E8": "78 92 98 106 104 97 83 57",
}


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejected the command line
        code = e.code
    out = capsys.readouterr()
    return code or 0, out.out, out.err


class TestDims:
    @pytest.mark.parametrize("group,line", sorted(FLAG_DIMS.items()))
    def test_first_line(self, capsys, group, line):
        code, out, _ = run(capsys, "dims", group)
        assert code == 0
        assert out.splitlines()[0] == line

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dims", "E7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["flag_dims"] == [33, 42, 47, 53, 50, 42, 27]
        borel = {b["subgroup"]: b["borel_dim"] for b in payload["borel_dims"]}
        assert borel["E6xT1"] == 43
        assert borel["A7"] == 35

    def test_bad_group(self, capsys):
        code, _, err = run(capsys, "dims", "X9")
        assert code == 2
        assert "error" in err


class TestClassify:
    def test_g2(self, capsys):
        code, out, _ = run(capsys, "classify", "G2")
        assert code == 0
        assert "spherical: 2 of" in out
        assert "duality: consistent" in out

    def test_f4(self, capsys):
        code, out, _ = run(capsys, "classify", "F4")
        assert code == 0
        assert "spherical: 4 of 24" in out

    def test_e8_empty(self, capsys):
        code, out, _ = run(capsys, "classify", "E8")
        assert code == 0
        assert "spherical: 0 of" in out

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "classify", "X9")
        assert code == 2

    def test_no_catalog(self, capsys):
        code, _, err = run(capsys, "classify", "A3")
        assert code == 3

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "classify", "G2", "--format", "json")
        _, out2, _ = run(capsys, "classify", "G2", "--format", "json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["spherical_count"] == 2
        assert payload["duality_consistent"] is True

    def test_seed_changes_witness_not_verdicts(self, capsys):
        _, out1, _ = run(capsys, "classify", "F4", "--format", "json", "--seed", "1")
        _, out2, _ = run(capsys, "classify", "F4", "--format", "json", "--seed", "2")
        rows1 = json.loads(out1)["rows"]
        rows2 = json.loads(out2)["rows"]
        assert [r["verdict"] for r in rows1] == [r["verdict"] for r in rows2]


class TestSpherical:
    def test_orbit_witness(self, capsys):
        code, out, _ = run(capsys, "spherical", "E6", "A5xA1", "1")
        assert code == 0
        assert "spherical (orbit, exact)" in out
        assert "witness:" in out

    def test_translate(self, capsys):
        code, out, _ = run(capsys, "spherical", "E6", "C4", "1")
        assert code == 0
        assert "spherical (translate, exact)" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "spherical", "E6", "F4", "4")
        assert code == 0
        assert "not-spherical" in out

    def test_unknown_subgroup(self, capsys):
        code, _, err = run(capsys, "spherical", "E6", "B3", "1")
        assert code == 3

    def test_bad_node(self, capsys):
        code, _, err = run(capsys, "spherical", "E6", "F4", "9")
        assert code == 2


class TestBranch:
    def test_expansion_and_verify(self, capsys):
        code, out, _ = run(capsys, "branch", "G2", "A2", "2", "3", "--verify")
        assert code == 0
        assert "10 classes" in out.splitlines()[0]
        for k in (1, 2, 3):
            assert f"verify k={k}: match (direct, dual)" in out

    def test_charges_shown(self, capsys):
        code, out, _ = run(capsys, "branch", "E7", "E6xT1", "7", "1", "--verify")
        assert code == 0
        for label in ("l1@-1", "l6@1", "0@3", "0@-3"):
            assert label in out
        assert "verify k=1: match (direct, dual)" in out

    def test_dual_only_reading(self, capsys):
        code, out, _ = run(capsys, "branch", "E6", "A5xA1", "1", "1", "--verify")
        assert code == 0
        assert "verify k=1: match (dual)" in out

    def test_direct_only_reading(self, capsys):
        code, out, _ = run(capsys, "branch", "E6", "D5xT1", "6", "1", "--verify")
        assert code == 0
        assert "verify k=1: match (direct)" in out

    def test_kmax_sweep(self, capsys):
        code, out, _ = run(capsys, "branch", "F4", "B4", "1", "1", "--verify", "--kmax", "2")
        assert code == 0
        assert "verify k=2: match" in out

    def test_no_rule(self, capsys):
        code, _, err = run(capsys, "branch", "E6", "F4", "4", "1")
        assert code == 3

    def test_negative_degree(self, capsys):
        code, _, err = run(capsys, "branch", "G2", "A2", "1", "-1")
        assert code == 2

    def test_json_classes(self, capsys):
        code, out, _ = run(
            capsys, "branch", "E7", "A7", "7", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert {"weight": [0, 0, 0, 0, 0, 0, 0], "charge": 0, "mult": 1} in payload[
            "classes"
        ]
        assert len(payload["classes"]) == 5


# Inputs that used to give a wrong verdict, a traceback or a vacuous
# check; each must now exit with code 2 and a one-line error.  The removed
# --mod-prime option is a usage error: argparse prints the usage line and
# then the one-line error.
INPUT_DEFECTS = [
    (["spherical", "G2", "A2", "1", "--trials", "0"], 2),
    (["spherical", "G2", "A2", "1", "--trials", "-3"], 2),
    (["spherical", "E6", "F4", "2", "--mod-prime", "auto"], 2),
    (["branch", "G2", "A2", "1", "2", "--verify", "--kmax", "0"], 2),
    (["branch", "G2", "A2", "2", "0", "--verify"], 2),
    (["branch", "G2", "A2", "3", "1"], 2),
    (["branch", "G2", "A2", "1", "2", "--kmax", "1"], 2),
]


@pytest.mark.parametrize(
    "argv,want", INPUT_DEFECTS, ids=[" ".join(a) for a, _ in INPUT_DEFECTS]
)
def test_input_defects(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    if err.startswith("usage: "):  # usage lines, then "<prog>: error: ..."
        err = err[err.index(": error: ") + 2 :]
    assert err.startswith("error: ") and err.count("\n") == 1


class TestMult:
    def test_small_exact(self, capsys):
        code, out, _ = run(capsys, "mult", "E7", "E6xT1", "w7", "l6@1")
        assert code == 0
        assert out.strip().endswith(": 1")

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "mult", "E7", "A7", "2w7", "l1+l7")
        assert code == 0
        assert out.strip().endswith(": 0")

    def test_heavy_gate(self, capsys):
        code, _, err = run(capsys, "mult", "E7", "A7", "4w1", "l4")
        assert code == 4
        assert "--enable-heavy" in err

    def test_charge_on_torus_free(self, capsys):
        code, _, err = run(capsys, "mult", "E6", "F4", "w1", "l4@3")
        assert code == 2

    def test_ambient_charge_rejected(self, capsys):
        code, _, err = run(capsys, "mult", "E6", "F4", "w1@2", "l4")
        assert code == 2

    def test_typeonly_unsupported(self, capsys):
        code, _, err = run(capsys, "mult", "E8", "G2xF4", "w8", "l1")
        assert code == 3


class TestDataDir:
    def test_data_flag(self, capsys, tmp_path):
        for name in ("embeddings.txt", "rules.txt"):
            shutil.copy(os.path.join(data_dir_default(), name), tmp_path / name)
        code, out, _ = run(capsys, "classify", "G2", "--data", str(tmp_path))
        assert code == 0
        assert "spherical: 2 of" in out

    def test_missing_data(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", "G2", "--data", str(tmp_path / "nope"))
        assert code == 2


# a data directory: the packaged files with at most one replaced by text
BAD_DATA = {
    "bad_embeddings": ("embeddings.txt", "garbage\n"),
    "bad_rules": ("rules.txt", "format 1\nrule ?\n"),
    # records that lack the generator lines their kind reads, or carry
    # lines of another kind
    "folded_without_chev": (
        "embeddings.txt", "format 1\nembed A2 in G2\nkind folded\n"
    ),
    "levi_without_roots": (
        "embeddings.txt", "format 1\nembed A2xT1 in G2\nkind levi\ncoweight (1,0)\n"
    ),
    "levi_without_coweight": (
        "embeddings.txt",
        "format 1\nembed A2xT1 in G2\nkind levi\nroot 1 = (3,1)\nroot 2 = (0,1)\n",
    ),
    "subsystem_without_node": (
        "embeddings.txt", "format 1\nembed A2 in G2\nkind subsystem\n"
    ),
    "chev_on_subsystem": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nnode 1\n"
        "chev 1 = +(3,1)\nchev 2 = +(0,1)\n",
    ),
    "roots_on_folded": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind folded\nroot 1 = (3,1)\nroot 2 = (0,1)\n"
        "chev 1 = +(3,1)\nchev 2 = +(0,1)\n",
    ),
    "kind_derived": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind derived\n",
    ),
    "coweight_on_subsystem": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nnode 1\ncoweight (1,0)\n",
    ),
    # there is no omit directive: the root lines imply the omitted node
    "omit_on_subsystem": (
        "embeddings.txt", "format 1\nembed A2 in G2\nkind subsystem\nnode 1\nomit 1\n"
    ),
    "omit_on_levi": (
        "embeddings.txt",
        "format 1\nembed A1xT1 in G2\nkind levi\nomit 2\n"
        "root 1 = (0,1)\ncoweight (2,3)\n",
    ),
    # the central torus is read from the name: one T1 factor for a levi
    # record, none for any other kind
    "levi_without_torus": (
        "embeddings.txt",
        "format 1\nembed A1 in G2\nkind levi\nroot 1 = (0,1)\ncoweight (2,3)\n",
    ),
    "torus_on_subsystem": (
        "embeddings.txt", "format 1\nembed A2xT1 in G2\nkind subsystem\nnode 1\n"
    ),
    "node_on_levi": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind levi\nnode 1\n"
        "root 1 = (3,1)\nroot 2 = (0,1)\ncoweight (0,0)\n",
    ),
    # root lines that contradict the record: the simple roots of G2 do not
    # pair like those of A2; A2's roots are not in the A1xA1 of node 2, nor
    # the short A2 in the long A2 of node 1, and an A1 is smaller than the
    # A1xA1 of node 2; a coweight must vanish on the roots of a Levi
    # subgroup; the zero vector is not a root
    "roots_not_of_h": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nroot 1 = a1\nroot 2 = a2\n",
    ),
    "roots_off_node": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nnode 2\n"
        "root 1 = (3,1)\nroot 2 = (0,1)\n",
    ),
    "short_roots_at_node": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nnode 1\n"
        "root 1 = (1,0)\nroot 2 = (1,1)\n",
    ),
    "smaller_than_node": (
        "embeddings.txt",
        "format 1\nembed A1 in G2\nkind subsystem\nnode 2\nroot 1 = (1,0)\n",
    ),
    "coweight_off_roots": (
        "embeddings.txt",
        "format 1\nembed A1xT1 in G2\nkind levi\nroot 1 = (0,1)\ncoweight (1,0)\n",
    ),
    "root_not_a_root": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nroot 1 = (0,0)\nroot 2 = (0,1)\n",
    ),
    "root_tuple_dash": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nroot 1 = (1,-)\nroot 2 = (0,1)\n",
    ),
    "root_tuple_empty_entry": (
        "embeddings.txt",
        "format 1\nembed A2 in G2\nkind subsystem\nroot 1 = (1,,2)\nroot 2 = (0,1)\n",
    ),
    # levi records that are no Levi subgroup: a zero coweight, and
    # semisimple ranks that do not add up to rank G - 1
    "levi_zero_coweight_too_big": (
        "embeddings.txt",
        "format 1\nembed A2xT1 in G2\nkind levi\n"
        "root 1 = (3,1)\nroot 2 = (0,1)\ncoweight (0,0)\n",
    ),
    "levi_zero_coweight": (
        "embeddings.txt",
        "format 1\nembed A1xT1 in G2\nkind levi\nroot 1 = (0,1)\ncoweight (0,0)\n",
    ),
    "levi_rank_short": (
        "embeddings.txt",
        "format 1\nembed A1xT1 in F4\nkind levi\nroot 1 = a1\ncoweight (0,0,0,1)\n",
    ),
    "rulevariant_without_rule": ("rules.txt", "format 1\nrulevariant oops\n"),
    "zero_degree_rule": (
        "rules.txt", "format 1\nrule G2 A2 1 : 0*a1 = k -> a1*l1\n"
    ),
    # a type that does not parse, in the ambient or the subgroup name
    "rule_bad_ambient": (
        "rules.txt", "format 1\nrule G2x A2 1 : a1 = k -> a1*l1\n"
    ),
    "rule_unknown_factor": (
        "rules.txt", "format 1\nrule G2 Q2 1 : a1 = k -> a1*l1\n"
    ),
}

# the check that rejects each BAD_DATA fixture, as a fragment of its message
DATA_MESSAGES = {
    "bad_embeddings": "line 1: directive 'garbage' outside a record",
    "bad_rules": "line 2: missing ':'",
    "folded_without_chev": "kind folded needs chev lines",
    "levi_without_roots": "kind levi needs root lines and a coweight",
    "levi_without_coweight": "kind levi needs root lines and a coweight",
    "subsystem_without_node": "kind subsystem needs a node or root lines",
    "chev_on_subsystem": "chev lines go only with kind folded",
    "roots_on_folded": "root lines go only with kind subsystem or levi",
    "kind_derived": "unknown kind 'derived'",
    "coweight_on_subsystem": "a coweight line goes only with kind levi",
    "omit_on_subsystem": "line 5: unknown directive 'omit'",
    "omit_on_levi": "line 4: unknown directive 'omit'",
    "levi_without_torus": "a levi name needs exactly one T1 factor, got A1",
    "torus_on_subsystem": "a T factor goes only with kind levi, got A2xT1",
    "node_on_levi": "a node line goes only with kind subsystem",
    "roots_not_of_h": "restricts to",
    "roots_off_node": "is not in the subsystem of node 2",
    "short_roots_at_node": "is not in the subsystem of node 1",
    "smaller_than_node": "node 2: 2 positive roots, not 1",
    "coweight_off_roots": "(0, 1) restricts to [2, -3], not [2, 0]",
    "root_not_a_root": "(0, 0) is not a root of G2",
    "root_tuple_dash": "cannot parse root tuple",
    "root_tuple_empty_entry": "cannot parse root tuple",
    "levi_zero_coweight_too_big": "semisimple rank 1, not 2",
    "levi_zero_coweight": "a levi coweight must be nonzero",
    "levi_rank_short": "semisimple rank 3, not 1",
    "rulevariant_without_rule": "line 2: expected 'rulevariant <label> <rule>'",
    "zero_degree_rule": "line 2: generator a1 needs a degree of at least 1",
    "rule_bad_ambient": "line 2: cannot parse type factor ''",
    "rule_unknown_factor": "line 2: cannot parse type factor 'Q2'",
}


# A catalog or rule file that cannot be read or parsed is bad input (2) in
# every subcommand; only a group, entry or rule absent from a loaded file
# is unsupported (3).
DATA_EXIT_CASES = [
    (["spherical", "G2", "A2", "1"], "missing", 2),
    (["mult", "G2", "A2", "w1", "l1"], "missing", 2),
    (["branch", "G2", "A2", "1", "1"], "missing", 2),
    (["branch", "G2", "A2", "1", "1", "--verify"], "bad_embeddings", 2),
    (["classify", "G2"], "bad_embeddings", 2),
    (["dims", "G2"], "bad_embeddings", 2),
    (["spherical", "G2", "A2", "1"], "bad_embeddings", 2),
    (["mult", "G2", "A2", "w1", "l1"], "bad_embeddings", 2),
    (["classify", "G2"], "folded_without_chev", 2),
    (["classify", "G2"], "levi_without_roots", 2),
    (["classify", "G2"], "levi_without_coweight", 2),
    (["dims", "G2"], "subsystem_without_node", 2),
    (["classify", "G2"], "subsystem_without_node", 2),
    (["classify", "G2"], "chev_on_subsystem", 2),
    (["classify", "G2"], "roots_on_folded", 2),
    (["dims", "G2"], "kind_derived", 2),
    (["mult", "G2", "A2", "w1", "l1"], "coweight_on_subsystem", 2),
    (["branch", "G2", "A2", "1", "2", "--verify"], "coweight_on_subsystem", 2),
    (["classify", "G2"], "omit_on_subsystem", 2),
    (["classify", "G2"], "omit_on_levi", 2),
    (["mult", "G2", "A1", "w1", "l1"], "levi_without_torus", 2),
    (["dims", "G2"], "levi_without_torus", 2),
    (["dims", "G2"], "torus_on_subsystem", 2),
    (["classify", "G2"], "node_on_levi", 2),
    (["spherical", "G2", "A2", "1"], "roots_not_of_h", 2),
    (["mult", "G2", "A2", "w1", "l1"], "roots_not_of_h", 2),
    (["classify", "G2"], "roots_off_node", 2),
    (["classify", "G2"], "short_roots_at_node", 2),
    (["classify", "G2"], "smaller_than_node", 2),
    (["classify", "G2"], "coweight_off_roots", 2),
    (["classify", "G2"], "root_not_a_root", 2),
    (["dims", "G2"], "root_tuple_dash", 2),
    (["dims", "G2"], "root_tuple_empty_entry", 2),
    (["classify", "G2"], "levi_zero_coweight_too_big", 2),
    (["classify", "G2"], "levi_zero_coweight", 2),
    (["classify", "F4"], "levi_rank_short", 2),
    (["branch", "G2", "A2", "1", "1"], "rulevariant_without_rule", 2),
    (["branch", "G2", "A2", "1", "1"], "zero_degree_rule", 2),
    (["branch", "G2", "A2", "1", "1"], "bad_rules", 2),
    (["branch", "G2", "A2", "1", "1"], "rule_bad_ambient", 2),
    (["branch", "G2", "A2", "1", "1"], "rule_unknown_factor", 2),
    (["dims", "A3"], None, 3),
    (["classify", "A3"], None, 3),
    (["spherical", "A3", "A2", "1"], None, 3),
]


@pytest.mark.parametrize(
    "argv,data,want",
    DATA_EXIT_CASES,
    ids=[" ".join(a) + f" [{d}]" for a, d, _ in DATA_EXIT_CASES],
)
def test_data_exit_codes(capsys, tmp_path, argv, data, want):
    if data == "missing":
        argv = argv + ["--data", str(tmp_path / "nope")]
    elif data in BAD_DATA:
        bad_name, text = BAD_DATA[data]
        for name in ("embeddings.txt", "rules.txt"):
            shutil.copy(os.path.join(data_dir_default(), name), tmp_path / name)
        (tmp_path / bad_name).write_text(text, encoding="utf-8")
        argv = argv + ["--data", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    assert err.startswith("error: ")
    assert DATA_MESSAGES.get(data, "") in err
    if BAD_DATA.get(data, ("",))[0] == "rules.txt":
        # every rule-file fixture goes wrong on its line 2, and says so
        assert err.startswith("error: line 2: ")


# sha256 of the stdout of `classify <G> --seed 0 --format json`: pins every
# verdict and witness.  G2, F4, E6 and E8 were recorded before the orbit
# test built its cell in one way for every catalog kind.  E7 was re-recorded
# when E7 > A1xF4 became a folded record: its 7 rows changed only their
# "kind" from "derived" to "folded".
CLASSIFY_JSON_SHA256 = {
    "G2": "3cb823ec107cae0246f7e604c9a8ae926ddddff427d570d3118cc22795d1127a",
    "F4": "471d75aeabe06cbf652504e464cb5d336db40da5584e1ac1ea4420d53ce21c2b",
    "E6": "4851164befbd7f758a5114d5443e6a895a21e04b266d5205b3e52659dd58b973",
    "E7": "618e12e1bd928d1bbc14a790a1cedb43a2778d789779001275d2617c26a45cb8",
    "E8": "a86f9fd6310689df1583941499454f6b378c3caae7bd54e3bc9a9cadfe279e9d",
}


@pytest.mark.parametrize("group", sorted(CLASSIFY_JSON_SHA256))
def test_classify_json_golden(capsys, group):
    code, out, _ = run(capsys, "classify", group, "--seed", "0", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_JSON_SHA256[group]


class TestSubprocess:
    """End-to-end runs in a fresh interpreter (env vars, real exit codes)."""

    def _run(self, *argv, env=None):
        # the child imports the same liebranch as this process, installed
        # or not
        src = os.path.dirname(os.path.dirname(liebranch.__file__))
        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, full_env.get("PYTHONPATH")) if p
        )
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "liebranch.cli", *argv],
            capture_output=True,
            text=True,
            env=full_env,
        )

    def test_exit_codes(self):
        assert self._run("dims", "G2").returncode == 0
        assert self._run("classify", "X9").returncode == 2
        assert self._run("branch", "E6", "F4", "4", "1").returncode == 3

    def test_heavy_env_flag(self):
        proc = self._run("mult", "E7", "A7", "4w1", "l4", env={"LIEBRANCH_HEAVY": "1"})
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith(": 1")

    def test_data_env(self, tmp_path):
        for name in ("embeddings.txt", "rules.txt"):
            shutil.copy(os.path.join(data_dir_default(), name), tmp_path / name)
        proc = self._run(
            "classify", "G2", env={"LIEBRANCH_DATA": str(tmp_path)}
        )
        assert proc.returncode == 0
        assert "spherical: 2 of" in proc.stdout
