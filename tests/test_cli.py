import json
import os
import re
import subprocess
import sys

import pytest

from gkit import dsl
from gkit.cli import Session, SessionConfig, run_script
from gkit.errors import ParseError

WORKED_SCRIPT = """\
# the quadratic example over the depth-2 unramified base
base { p = 2; pbasis = [t]; }
ring A = unramified(2);
scheme X over A { vars [x]; eqs [ x^2 - teich(t)^2 ]; }
greenberg X --stage 0;
point push X (teich(t));
"""


def run_cli(args, tmp_path=None):
    return subprocess.run(
        [sys.executable, "-m", "gkit.cli"] + args, capture_output=True, text=True
    )


def records_of(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


def test_parse_minimal():
    script = dsl.parse("base { p = 2; pbasis = [t]; }")
    assert script == [("base", {"p": 2, "names": ["t"]})]


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        dsl.parse("ring A = unramified();")
    assert err.value.line == 1 and err.value.col == 21


@pytest.mark.parametrize(
    "bad",
    [
        "ring = unramified(2);",
        "base { p = x; pbasis = [t]; }",
        "scheme X over A { vars []; }",
        "witt add (1,0);",
        "units wat g;",
        "elem g = ;",
        "greenberg;",
        "@",
    ],
)
def test_malformed_inputs_raise_parse_errors(bad):
    with pytest.raises(ParseError):
        dsl.parse(bad)


V1 = [("int", 1)]
V2 = [("name", "t"), ("int", 0)]
COMMAND_PAYLOADS = [
    ("witt add (1) (t, 0);", {"kind": "witt.add", "vectors": [V1, V2], "flags": {}}),
    ("witt mul (1) (t, 0);", {"kind": "witt.mul", "vectors": [V1, V2], "flags": {}}),
    ("witt neg (1) --ring int;", {"kind": "witt.neg", "vectors": [V1], "flags": {"ring": "int"}}),
    ("witt v (1);", {"kind": "witt.v", "vectors": [V1], "flags": {}}),
    ("witt f (1);", {"kind": "witt.f", "vectors": [V1], "flags": {}}),
    ("witt ghost 2 (t, 0);", {"kind": "witt.ghost", "r": 2, "vectors": [V2], "flags": {}}),
    ("witt teich t --len 3;", {"kind": "witt.teich", "expr": ("name", "t"), "flags": {"len": 3}}),
    ("cohen add (1) (t, 0);", {"kind": "cohen.add", "vectors": [V1, V2], "flags": {}}),
    ("cohen mul (1) (t, 0);", {"kind": "cohen.mul", "vectors": [V1, V2], "flags": {}}),
    ("cohen extract (1);", {"kind": "cohen.extract", "vectors": [V1], "flags": {}}),
    ("cohen embed (1) --to 3;", {"kind": "cohen.embed", "vectors": [V1], "flags": {"to": 3}}),
    ("cohen pdiv (1) --e 2;", {"kind": "cohen.pdiv", "vectors": [V1], "flags": {"e": 2}}),
    ("cohen residue (t, 0);", {"kind": "cohen.residue", "vectors": [V2], "flags": {}}),
    ('greenberg X --stage 1 --out "o.json";',
     {"kind": "greenberg", "scheme": "X", "flags": {"stage": 1, "out": "o.json"}}),
    ("point push X (t, 0);", {"kind": "point.push", "scheme": "X", "vector": V2, "flags": {}}),
    ("point pull X (1) --stage 2;",
     {"kind": "point.pull", "scheme": "X", "vector": V1, "flags": {"stage": 2}}),
    ("units level g;", {"kind": "units.level", "expr": ("name", "g"), "flags": {}}),
    ("units ppow-solve g --n 1;",
     {"kind": "units.ppow-solve", "expr": ("name", "g"), "flags": {"n": 1}}),
    ("units ppow - solve 1 + p;",
     {"kind": "units.ppow-solve", "expr": ("bin", "+", ("int", 1), ("name", "p")), "flags": {}}),
    ("selftest --seed 4;", {"kind": "selftest", "flags": {"seed": 4}}),
]


@pytest.mark.parametrize("text, payload", COMMAND_PAYLOADS)
def test_command_payloads(text, payload):
    ((kind, got),) = dsl.parse(text)
    assert kind == "cmd"
    assert got == payload
    assert list(got) == list(payload)  # the keys in the same order


def test_command_payloads_cover_the_command_table():
    kinds = {payload["kind"] for _, payload in COMMAND_PAYLOADS}
    assert kinds == {head if sub is None else f"{head}.{sub}"
                     for head, subs in dsl.COMMANDS.items() for sub in subs}


@pytest.mark.parametrize("text, expected", [
    ("witt wat (1);", "a witt operation"),
    ("cohen wat (1);", "a cohen operation"),
    ("point wat X (1);", "'push' or 'pull'"),
    ("units wat g;", "'level' or 'ppow-solve'"),
])
def test_unknown_subcommand_is_reported_at_its_own_position(text, expected):
    with pytest.raises(ParseError) as err:
        dsl.parse("\n  " + text)
    col = len(text.split()[0]) + 4
    assert (err.value.line, err.value.col) == (2, col)
    assert (err.value.expected, err.value.found) == (expected, "wat")


GRAMMAR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "grammar.ebnf")


@pytest.mark.parametrize("head", ["witt", "cohen", "point", "units"])
def test_grammar_names_the_table_subcommands(head):
    with open(GRAMMAR) as fh:
        text = re.sub(r"\(\*.*?\*\)", "", fh.read(), flags=re.S)
    rule = re.search(rf'^{head}_cmd\s*=\s*"{head}"(.*?)flags ";" ;', text, re.S | re.M)
    assert set(re.findall(r'"([^"]+)"', rule.group(1))) == set(dsl.COMMANDS[head])


def test_unknown_identifier_is_structured():
    config = SessionConfig()
    session = run_script(
        "base { p = 2; pbasis = [t]; }\nwitt teich u --len 2;", config
    )
    assert session.failed
    assert session.results[0]["error"]["type"] == "UnknownIdentifier"


def test_worked_example_end_to_end(tmp_path):
    path = tmp_path / "demo.gk"
    path.write_text(WORKED_SCRIPT)
    proc = run_cli(["--script", str(path)])
    assert proc.returncode == 0, proc.stderr
    records = records_of(proc.stdout)
    pres = records[0]["presentation"]
    assert pres["equations"][0] == "zx.0.0.0^2 + t*zx.0.1.0^2 + t"
    assert pres["symbols"] == ["zx.0.0.0", "zx.0.1.0", "zx.1.0.0"]
    assert records[1]["coords"] == ["0", "1", "0"]


def test_witt_commands():
    config = SessionConfig()
    script = (
        "base { p = 2; pbasis = [t]; }\n"
        "witt add (1,0) (1,0);\n"
        "witt mul (t,0) (t,0);\n"
        "witt neg (1,0);\n"
        "witt v (t,1);\n"
        "witt f (t,1);\n"
        "witt teich t --len 3;\n"
        "witt ghost 1 (2,1) --ring int;\n"
    )
    session = run_script(script, config)
    results = [r["result"] for r in session.results]
    assert results[0] == ["0", "1"]
    assert results[1] == ["t^2", "0"]
    assert results[2] == ["1", "1"]
    assert results[3] == ["0", "t", "1"]
    assert results[4] == ["t^2", "1"]
    assert results[5] == ["t", "0", "0"]
    assert results[6] == 6  # 2^2 + 2*1


def test_teich_length_below_one_is_a_record():
    session = run_script("base { p = 2; pbasis = [t]; }\nwitt teich t --len 0;", SessionConfig())
    assert session.failed
    assert [r["error"]["type"] for r in session.results] == ["LengthMismatch"]


def test_teich_length_past_the_envelope_is_refused_like_the_ops():
    session = run_script(
        "base { p = 2; pbasis = [t]; }\n"
        "witt teich t --len 1000000000000;\n"
        "witt teich t --len 6;\n"
        "witt add (t,0,0,0,0,0) (t,0,0,0,0,0);\n"
        "witt teich t --len 5;\n",
        SessionConfig(),
    )
    huge, teich, add, ok = session.results
    assert huge["error"]["type"] == "ResourceLimit"
    assert "p = 2, N = 1000000000000" in huge["error"]["message"]
    assert teich["error"] == add["error"]
    assert ok["result"] == ["t", "0", "0", "0", "0"]


def test_cohen_commands_and_error_exit(tmp_path):
    path = tmp_path / "cohen.gk"
    path.write_text(
        "base { p = 2; pbasis = [t]; }\n"
        "cohen extract (t,0);\n"
        "cohen extract (0,t);\n"
        "cohen add (t,0) (t,0);\n"
        "cohen mul (t,0) (t,0);\n"
        "cohen embed (t) --to 2;\n"
        "cohen pdiv (0,t^2) --e 1;\n"
        "cohen residue (t,0);\n"
    )
    proc = run_cli(["--script", str(path)])
    assert proc.returncode == 1
    records = records_of(proc.stdout)
    assert records[0]["result"] == {"n": 1, "coords": {"0,1": "1"}}
    assert records[1]["status"] == "error"
    assert records[1]["error"]["type"] == "NotInCohen"
    assert records[2]["result"]["coords"] == {"1,0": "t"}
    assert records[3]["result"]["coords"] == {"0,0": "t"}
    assert records[4]["result"]["coords"] == {"1,0": "t"}
    assert records[5]["result"]["coords"] == {"0,1": "1"}
    assert records[6]["result"] == "t"


def test_eisenstein_ring_and_units_commands():
    config = SessionConfig()
    script = (
        "base { p = 3; pbasis = [t]; }\n"
        "ring A = eisenstein(3, E = pi^2 - p);\n"
        "elem v = 1 + p^2 * teich(t);\n"
        "units level v;\n"
        "units ppow-solve v --n 2;\n"
        "units level teich(t);\n"
    )
    session = run_script(script, config)
    assert not session.failed, session.results
    assert session.results[0]["level"] == 4
    assert session.results[1]["verified"] is True
    assert session.results[2]["level"] == 0


def test_point_pull():
    config = SessionConfig()
    script = WORKED_SCRIPT + "point pull X (0, 1, t);\n"
    session = run_script(script, config)
    assert not session.failed
    pull = session.results[-1]
    assert pull["verified"] is True
    comps = pull["point"][0]["components"]
    assert comps[0]["coords"]["0,1"] == "1"


def test_selftest_all_pass():
    config = SessionConfig(seed=42)
    session = run_script("selftest --seed 42;", config)
    report = session.results[0]["report"]
    assert report["ok"]
    assert all(v["fail"] == 0 for v in report["suites"].values())


def test_greenberg_out_file(tmp_path):
    script_path = tmp_path / "s.gk"
    out_path = tmp_path / "pres.json"
    script_path.write_text(
        WORKED_SCRIPT.replace(
            "greenberg X --stage 0;", f'greenberg X --stage 0 --out "{out_path}";'
        )
    )
    proc = run_cli(["--script", str(script_path)])
    assert proc.returncode == 0
    doc = json.loads(out_path.read_text())
    assert doc["stage"] == 0 and len(doc["symbols"]) == 3
    # --out naming the same file, opened before the script runs, ends up
    # holding the record alone, although the presentation is longer
    script_path.write_text(script_path.read_text().replace("point push X (teich(t));\n", ""))
    again = run_cli(["--script", str(script_path), "--out", str(out_path)])
    assert again.returncode == 0 and again.stdout == ""
    assert out_path.read_text() == proc.stdout.splitlines(keepends=True)[0]


def test_greenberg_out_to_a_missing_directory_is_a_record(tmp_path):
    script_path = tmp_path / "s.gk"
    out_path = tmp_path / "missing" / "pres.json"
    script_path.write_text(
        WORKED_SCRIPT.replace(
            "greenberg X --stage 0;", f'greenberg X --stage 0 --out "{out_path}";'
        )
    )
    proc = run_cli(["--script", str(script_path)])
    assert proc.returncode == 1, proc.stderr
    greenberg, push = records_of(proc.stdout)
    assert greenberg["error"]["type"] == "TypeMismatch"
    assert "--out" in greenberg["error"]["message"]
    assert "No such file or directory" in greenberg["error"]["message"]
    assert push["status"] == "ok"


def test_byte_identical_runs(tmp_path):
    path = tmp_path / "demo.gk"
    path.write_text(WORKED_SCRIPT + "selftest --seed 9;\n")
    a = run_cli(["--script", str(path), "--seed", "9"])
    b = run_cli(["--script", str(path), "--seed", "9"])
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_selftest_shortcut():
    proc = run_cli(["selftest", "--seed", "3"])
    assert proc.returncode == 0
    report = records_of(proc.stdout)[0]["report"]
    assert report["seed"] == 3 and report["ok"]


def test_jobs_flag_deterministic(tmp_path):
    path = tmp_path / "demo.gk"
    path.write_text(WORKED_SCRIPT)
    a = run_cli(["--script", str(path), "--jobs", "1"])
    b = run_cli(["--script", str(path), "--jobs", "4"])
    assert a.stdout == b.stdout


def test_env_caps(tmp_path, monkeypatch):
    path = tmp_path / "demo.gk"
    path.write_text(WORKED_SCRIPT)
    # inherit the environment (PYTHONPATH included) so the child imports the
    # same gkit; only the caps are pinned
    env = dict(os.environ, GKIT_SYMBOL_CAP="1")
    env.pop("GKIT_MONOMIAL_CAP", None)
    env_proc = subprocess.run(
        [sys.executable, "-m", "gkit.cli", "--script", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert env_proc.returncode == 1, env_proc.stderr
    records = records_of(env_proc.stdout)
    assert records, f"the CLI wrote no records; stderr:\n{env_proc.stderr}"
    assert records[0]["error"]["type"] == "ResourceLimit"


@pytest.mark.parametrize(
    "flags,env_extra,needle",
    [
        (["--jobs", "0"], {}, "--jobs"),
        (["--stage", "-1"], {}, "--stage"),
        ([], {"GKIT_MONOMIAL_CAP": "abc"}, "GKIT_MONOMIAL_CAP='abc'"),
        ([], {"GKIT_MONOMIAL_CAP": "0"}, "GKIT_MONOMIAL_CAP='0'"),
        ([], {"GKIT_SYMBOL_CAP": "-1"}, "GKIT_SYMBOL_CAP='-1'"),
        (["--script", "{tmp}/missing.gk"], {},
         "--script '{tmp}/missing.gk' cannot be read: No such file or directory"),
        (["--script", "{tmp}"], {}, "--script '{tmp}' cannot be read: Is a directory"),
        (["--script", "{tmp}/latin1.gk"], {},
         "--script '{tmp}/latin1.gk' cannot be read: 'utf-8' codec can't decode byte 0xe9"),
        (["--out", "{tmp}/missing/out.jsonl"], {},
         "--out '{tmp}/missing/out.jsonl' cannot be written: No such file or directory"),
    ],
    ids=["jobs-zero", "stage-negative", "cap-not-an-integer", "cap-zero", "symbol-cap-negative",
         "script-missing", "script-directory", "script-not-utf8", "out-directory-missing"],
)
def test_config_errors_are_records(tmp_path, flags, env_extra, needle):
    """A bad flag, cap or file gives one TypeMismatch record on stdout,
    naming the flag or variable, and exit status 1; ``{tmp}`` stands for
    the test's directory, which holds the worked example and a Latin-1
    script."""
    path = tmp_path / "demo.gk"
    path.write_text(WORKED_SCRIPT)
    (tmp_path / "latin1.gk").write_bytes("# caf\u00e9\nselftest;\n".encode("latin-1"))
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    needle = needle.format(tmp=tmp_path)
    env = dict(os.environ, **env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "gkit.cli", "--script", str(path)] + flags,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    records = records_of(proc.stdout)
    assert len(records) == 1, proc.stdout
    assert records[0]["status"] == "error"
    assert records[0]["error"]["type"] == "TypeMismatch"
    assert needle in records[0]["error"]["message"]


def test_declaration_errors_are_records(tmp_path):
    path = tmp_path / "decl.gk"
    path.write_text(
        "base { p = 2; pbasis = [t]; }\n"
        "witt add (1,0) (1,0);\n"
        "ring B = eisenstein(2, E = pi^2 - t);\n"
    )
    proc = run_cli(["--script", str(path)])
    assert proc.returncode == 1, proc.stderr
    records = records_of(proc.stdout)
    assert [r["cmd"] for r in records] == ["witt.add", "declare.ring"]
    assert records[0] == {"cmd": "witt.add", "result": ["0", "1"], "status": "ok"}
    assert records[1]["status"] == "error"
    assert records[1]["error"]["type"] == "UnknownIdentifier"


def test_declarations_after_a_failure_still_run():
    session = run_script(
        "base { p = 3; pbasis = [t]; }\n"
        "scheme X over Z { vars [x]; eqs [ x ]; }\n"
        "ring A = unramified(2);\n"
        "elem g = teich(s) + p;\n"
        "elem g = teich(t) + p;\n"
        "units level g;\n",
        SessionConfig(),
    )
    assert session.failed
    assert [r["cmd"] for r in session.results] == [
        "declare.scheme", "declare.elem", "units.level"
    ]
    assert [r["error"]["type"] for r in session.results[:2]] == ["UnknownIdentifier"] * 2
    assert session.results[2] == {"cmd": "units.level", "level": 0, "status": "ok"}


def test_large_prime_witt_add_is_refused_quickly():
    import time

    start = time.monotonic()
    session = run_script(
        "base { p = 4294967291; pbasis = [t]; }\n"
        "witt add (t^40 + t^3 + 4294967290, 3) (t^41 + 7, t);\n",
        SessionConfig(),
    )
    assert time.monotonic() - start < 1.0
    (record,) = session.results
    assert record["status"] == "error"
    assert record["error"]["type"] == "ResourceLimit"
    assert "p = 4294967291, N = 2" in record["error"]["message"]


def test_restriction_sum_past_the_cap_is_refused_quickly():
    """Stage 2 of this scheme over Eisenstein pi^2 - p sums one substituted
    equation past the default monomial cap; the sum is checked term by term,
    so the refusal comes in seconds instead of after gigabytes.  Stage 1,
    whose largest sum stays under the cap, still answers."""
    import time

    script = (
        "base { p = 3; pbasis = [t]; }\n"
        "ring B = eisenstein(2, E = pi^2 - p);\n"
        "scheme X over B { vars [x, y]; eqs [ (teich(t) + p*teich(t + 1))"
        "*(y - x^2 - (teich(t^2 + 2) + p*teich(2*t))*x) ]; }\n"
        "greenberg X --stage 1;\n"
        "greenberg X --stage 2;\n"
    )
    start = time.monotonic()
    stage1, stage2 = run_script(script, SessionConfig()).results[-2:]
    assert time.monotonic() - start < 30.0
    assert stage1["status"] == "ok" and stage1["equations"] == 24
    assert stage2["error"] == {
        "type": "ResourceLimit", "message": "intermediate polynomial exceeded 20000 monomials"
    }


def test_stage_past_the_symbol_cap_is_refused_before_any_stage_is_built():
    """Stage s has n_0 * (p^d)^s symbols, so the first stage over the cap
    is known from stage 0's count: here n_0 = 3 at p = 2, and stage 11, with
    3 * 2^11 = 6144 symbols, is the first over 5000.  Stage 100 is refused
    with that stage's record at once, by the session and by the transform,
    instead of after building stages 1 to 10."""
    import time

    from gkit import greenberg
    from gkit.errors import ResourceLimit

    start = time.monotonic()
    session = run_script(
        "base { p = 2; pbasis = [t]; }\n"
        "ring A = unramified(2);\n"
        "scheme X over A { vars [x]; eqs [ x - 1 ]; }\n"
        "greenberg X --stage 100;\n",
        SessionConfig(),
    )
    with pytest.raises(ResourceLimit) as refused:
        greenberg.greenberg_transform(session.scheme("X"), 100)
    assert time.monotonic() - start < 2.0
    message = "6144 symbols exceed the cap 5000"
    assert refused.value.payload()["message"] == message
    assert session.results == [{"cmd": "greenberg", "status": "error", "error": {
        "type": "ResourceLimit", "message": message}}]


def test_stages_build_on_the_stage_below(monkeypatch):
    """greenberg at stage 1, then 2, then push and pull at stage 2, expands
    stage 0 once; every record equals the one of a transform built from
    scratch, and a stage past the symbol cap fails with the record such a
    transform raises."""
    from gkit import greenberg
    from gkit.cli import base_elem_to_json
    from gkit.errors import ResourceLimit

    scratch, expansions = greenberg.greenberg_transform, []

    def counted(X, stage=0, *caps):
        expansions.append(stage)
        return scratch(X, stage, *caps)

    monkeypatch.setattr(greenberg, "greenberg_transform", counted)
    coords = ", ".join(["1/(t + 1)"] * 8 + ["0"] * 4)
    script = (
        "base { p = 2; pbasis = [t]; }\n"
        "ring A = unramified(2);\n"
        "scheme X over A { vars [x]; eqs [ teich(t + 1)*(x^2 - teich(1/(t + 1))^2) ]; }\n"
        "greenberg X --stage 1;\n"
        "greenberg X --stage 2;\n"
        "point push X (teich(1/(t + 1))) --stage 2;\n"
        f"point pull X ({coords}) --stage 2;\n"
        "greenberg X --stage 3;\n"
    )
    session = run_script(script, SessionConfig(symbol_cap=12))
    assert expansions == [0]
    X = session.scheme("X")
    stage1, stage2, push, pull, stage3 = session.results
    for record, stage in ((stage1, 1), (stage2, 2)):
        assert record["presentation"] == scratch(X, stage, symbol_cap=12).to_json()
    assert push["coords"] == coords.split(", ")
    t, one = session.params.gen(0), session.params.one()
    assert pull["point"] == [base_elem_to_json(X.base.algebra().teich((t + one).inverse()))]
    with pytest.raises(ResourceLimit) as refused:
        scratch(X, 3, symbol_cap=12)
    assert stage3 == {"cmd": "greenberg", "status": "error", "error": refused.value.payload()}
    assert refused.value.payload()["message"] == "24 symbols exceed the cap 12"


def test_redeclared_scheme_drops_its_stages():
    session = run_script(
        "base { p = 2; pbasis = [t]; }\n"
        "ring A = unramified(2);\n"
        "scheme X over A { vars [x]; eqs [ x - teich(t) ]; }\n"
        "greenberg X --stage 1;\n"
        "scheme X over A { vars [x]; eqs [ x - 1 ]; }\n"
        "point push X (1) --stage 1;\n",
        SessionConfig(),
    )
    assert session.results[-1] == {
        "cmd": "point.push", "coords": ["1", "0", "0", "0", "0", "0"], "stage": 1, "status": "ok"}


FUZZ_STATEMENTS = [
    "witt add (1,0) (t,1);",
    "witt mul (t,0) (1,t);",
    "witt neg (1,t);",
    "witt v (t,1);",
    "witt f (t,1);",
    "witt teich t --len 2;",
    "witt ghost 1 (2,1) --ring int;",
    "witt add (1,2) (3,4) --ring int;",
    "cohen extract (t,0);",
    "cohen add (t,0) (1,0);",
    "cohen mul (t,0) (t,0);",
    "cohen embed (t,0) --to 3;",
    "cohen pdiv (0,t^2) --e 1;",
    "cohen residue (t,1);",
    "ring A = unramified(2);",
    "ring B = eisenstein(2, E = pi^2 - p);",
    "elem g = teich(t) + p;",
    "elem h = 1 + p*teich(t) over A;",
    "units level g;",
    "units level h --ring A;",
    "units ppow-solve h --n 1;",
]


def test_fuzzed_scripts_raise_only_gkit_errors():
    """Seeded scripts of cheap statements with random token deletions:
    whatever they do, run_script raises nothing but GkitError."""
    import random

    from gkit.errors import GkitError

    rng = random.Random(20261018)
    for _ in range(150):
        p = rng.choice((2, 3))
        lines = [f"base {{ p = {p}; pbasis = [t]; }}"]
        lines += [rng.choice(FUZZ_STATEMENTS) for _ in range(rng.randrange(1, 6))]
        tokens = dsl.tokenize("\n".join(lines))[:-1]
        for _ in range(rng.randrange(0, 3)):
            del tokens[rng.randrange(len(tokens))]
        text = " ".join(tok.value for tok in tokens)
        try:
            run_script(text, SessionConfig())
        except GkitError:
            pass
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__}: {exc}\nscript:\n{text}")


def _well_formed_scripts(rng, count):
    """Seeded well-formed scripts as lists of lines, one statement a line:
    cheap statements, then a scheme with `greenberg`, `point push` and
    `pull`, and an Eisenstein scheme at stage 1."""

    def parses(statement):
        try:
            dsl.parse(statement)
        except ParseError:
            return False
        return True

    well_formed = [s for s in FUZZ_STATEMENTS if parses(s)]
    for _ in range(count):
        p = rng.choice((2, 3))
        lines = [f"base {{ p = {p}; pbasis = [t]; }}"]
        lines += [rng.choice(well_formed) for _ in range(rng.randrange(1, 5))]
        lines += [
            "ring S = unramified(2);",
            "scheme X over S { vars [x]; eqs [ x^2 - teich(t)^2 ]; }",
            "greenberg X --stage 0;",
            "point push X (teich(t));",
            "point pull X (0, 1, 0);" if p == 2 else "point pull X (0, 1, 0, 0);",
            "ring R = eisenstein(2, E = pi^2 - p);",
            "scheme Y over R { vars [x]; eqs [ teich(t + 1)*(x - teich(t) - pi) ]; }",
            "greenberg Y --stage 1;",
            "point push Y (teich(t) + pi) --stage 1;",
        ]
        yield lines


def _assert_one_record_per_statement(text, lines, max_parse):
    """Each line gives one statement or one parse record, at most
    ``max_parse`` parse records in all; every command gets its record,
    no statement gets two, and the script runs within 5 s."""
    import time

    kinds = [kind for kind, _ in dsl.Parser(text).parse_script()]
    assert len(kinds) == len(lines) and kinds.count("parse") <= max_parse, text
    start = time.monotonic()
    records = run_script(text, SessionConfig()).results
    assert time.monotonic() - start < 5.0, text
    cmds = [r for r in records if r["cmd"] != "parse" and not r["cmd"].startswith("declare.")]
    assert [r["cmd"] for r in records].count("parse") == kinds.count("parse"), text
    assert len(cmds) == kinds.count("cmd"), text
    assert len(records) <= len(lines), text
    return kinds


def test_inserted_characters_cost_one_record():
    """Seeded well-formed scripts with one character outside the token set
    inserted: the statement around it becomes the one parse record, every
    other command still gets its record, and no statement gets two."""
    import random

    rng = random.Random(20261019)
    for lines in _well_formed_scripts(rng, 40):
        text = "\n".join(lines)
        pos = rng.randrange(len(text))
        text = text[:pos] + rng.choice("@$%&!?") + text[pos:]
        kinds = _assert_one_record_per_statement(text, lines, 1)
        assert kinds.count("parse") == 1, text


def test_deleted_tokens_cost_at_most_one_record():
    """The same scripts with one token deleted, braces included: the
    touched statement gives at most one parse record (it may still
    parse), and every other statement keeps its one record.  A deleted
    '{' or '}' of a declaration must not split it or swallow what follows."""
    import random

    rng = random.Random(20261020)
    for lines in _well_formed_scripts(rng, 40):
        row = rng.randrange(len(lines))
        tok = rng.choice(dsl.tokenize(lines[row])[:-1])
        lines = list(lines)
        line = lines[row]
        lines[row] = line[: tok.col - 1] + line[tok.col - 1 + len(tok.value):]
        _assert_one_record_per_statement("\n".join(lines), lines, 1)
    for row, brace in ((0, "{"), (0, "}"), (-8, "{"), (-8, "}"), (-3, "}")):
        lines = next(_well_formed_scripts(rng, 1))
        assert brace in lines[row]
        lines[row] = lines[row].replace(brace, "", 1)
        _assert_one_record_per_statement("\n".join(lines), lines, 1)


def test_tokenizer_errors_cost_one_record_each(tmp_path):
    path = tmp_path / "token.gk"
    path.write_text(
        "base { p = 2; pbasis = [t]; }\n"
        "witt add (1,0) (1,0);\n"
        "witt add (1,0) (1,@);\n"
        "witt neg (1,0);\n"
    )
    proc = run_cli(["--script", str(path)])
    assert proc.returncode == 1, proc.stderr
    assert records_of(proc.stdout) == [
        {"cmd": "witt.add", "result": ["0", "1"], "status": "ok"},
        {"cmd": "parse", "status": "error", "error": {
            "type": "ParseError", "line": 3, "col": 19, "expected": "a token",
            "message": "line 3, col 19: expected a token, found '@'"}},
        {"cmd": "witt.neg", "result": ["1", "1"], "status": "ok"},
    ]


@pytest.mark.parametrize(
    "p,lines",
    [
        (2, ["ring Z = unramified(0);", "elem z = 1 over Z;"]),
        (3, ["ring B = eisenstein(0, E = pi - p);"]),
    ],
    ids=["unramified", "eisenstein"],
)
def test_level_zero_ring_is_a_declaration_record(p, lines):
    session = run_script(
        "\n".join([f"base {{ p = {p}; pbasis = [t]; }}"] + lines), SessionConfig()
    )
    rings = [r for r in session.results if r["cmd"] == "declare.ring"]
    assert len(rings) == 1, session.results
    assert rings[0]["error"] == {
        "type": "TypeMismatch", "message": "the level m must be at least 1, got 0"
    }


def test_teich_in_E_takes_one_argument():
    session = run_script(
        "base { p = 3; pbasis = [t]; }\n"
        "ring B = eisenstein(2, E = pi^2 - teich(t, t)*p);\n"
        "ring C = eisenstein(2, E = pi^2 - teich(t)*p);\n",
        SessionConfig(),
    )
    assert session.results == [{
        "cmd": "declare.ring", "status": "error",
        "error": {"type": "TypeMismatch", "message": "teich takes one argument"},
    }]
    assert session.rings["C"].e == 2 and "B" not in session.rings


def test_cancelled_top_term_of_E_is_dropped():
    """E = pi^3 - pi^3 + pi^2 - p is pi^2 - p: the written pi^3 cancels."""
    session = run_script(
        "base { p = 2; pbasis = [t]; }\n"
        "ring B = eisenstein(2, E = pi^3 - pi^3 + pi^2 - p);\n"
        "ring C = eisenstein(2, E = pi^2 - p);\n",
        SessionConfig(),
    )
    assert not session.failed, session.results
    assert session.rings["B"] == session.rings["C"]
    assert session.rings["B"].e == 2


def test_parse_errors_cost_one_record_each(tmp_path):
    path = tmp_path / "parse.gk"
    path.write_text(
        "base { p = 2; pbasis = [t]; }\n"
        "witt add (1,0) (1,0);\n"
        "witt add (1,0 (1,0);\n"
        "witt neg (1,0);\n"
    )
    proc = run_cli(["--script", str(path)])
    assert proc.returncode == 1, proc.stderr
    assert records_of(proc.stdout) == [
        {"cmd": "witt.add", "result": ["0", "1"], "status": "ok"},
        {"cmd": "parse", "status": "error", "error": {
            "type": "ParseError", "line": 3, "col": 15, "expected": "')'",
            "message": "line 3, col 15: expected ')', found '('"}},
        {"cmd": "witt.neg", "result": ["1", "1"], "status": "ok"},
    ]


def test_parse_resumes_after_the_failing_statement():
    text = (
        "base { p = ; pbasis = [t]; }\n"  # resumes after the closing brace
        "ring A = unramified(2);\n"
        "ring = x; witt neg (1,0);\n"  # resumes after the ';'
        "} witt neg (1,0);\n"  # a stray brace
    )
    kinds = [kind for kind, _ in dsl.Parser(text).parse_script()]
    assert kinds == ["parse", "ring", "parse", "cmd", "parse", "cmd"]
    with pytest.raises(ParseError) as err:
        dsl.parse(text)
    assert (err.value.line, err.value.col) == (1, 12)


def test_large_prime_digits_are_sparse(tmp_path):
    """Digit expansion at p = 4294967291 builds only the digits that occur;
    a dense expansion over [0, p-1] ran out of memory."""
    import time

    path = tmp_path / "bigp.gk"
    path.write_text(
        "base { p = 4294967291; pbasis = [t]; }\n"
        "ring B = eisenstein(2, E = pi^2 - p);\n"
        "elem g = teich(t) + p over B;\n"
        "units level g;\n"
    )
    start = time.monotonic()
    proc = run_cli(["--script", str(path)])
    assert time.monotonic() - start < 5
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert records_of(proc.stdout) == [{"cmd": "units.level", "level": 0, "status": "ok"}]


def _run_cli_within_1_gib(path):
    """The CLI on a script in a child limited to 1 GiB of address space, so
    a list of p^d entries fails fast instead of filling the machine."""
    import resource
    import time

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "gkit.cli", "--script", str(path)],
                          capture_output=True, text=True, preexec_fn=limit)
    assert time.monotonic() - start < 5
    assert proc.stderr == "", proc.stderr
    return proc


def _large_p_script(ring, command=""):
    return (
        "base { p = 4294967291; pbasis = [t]; }\n"
        f"ring A = {ring};\n"
        "scheme X over A { vars [x]; eqs [ x - teich(t) ]; }\n"
        f"greenberg X;\n{command}\n"
    )


@pytest.mark.parametrize("command, record", [
    ("point push X (teich(t));", {"cmd": "point.push", "coords": ["t"], "stage": 0, "status": "ok"}),
    ("point pull X (t);", {"cmd": "point.pull", "stage": 0, "status": "ok", "verified": True,
                           "point": [{"components": [{"coords": {"0,0": "t"}, "n": 0}]}]}),
], ids=["push", "pull"])
def test_stage_0_point_transfer_at_a_large_prime(tmp_path, command, record):
    """Stage 0 reads no digits, so point transfer at p = 4294967291 lists
    none of the p digit indices; listing them ran out of memory."""
    path = tmp_path / "bigp.gk"
    path.write_text(_large_p_script("unramified(1)", command))
    proc = _run_cli_within_1_gib(path)
    assert proc.returncode == 0
    presentation = {"equations": ["zx.0.0.0 + 4294967290*t"], "stage": 0, "symbols": ["zx.0.0.0"]}
    assert records_of(proc.stdout) == [
        {"cmd": "greenberg", "equations": 1, "presentation": presentation, "scheme": "X",
         "stage": 0, "status": "ok", "symbols": 1},
        record,
    ]


@pytest.mark.parametrize("ring, count", [
    ("unramified(2)", 4294967292),
    ("eisenstein(2, E = pi^2 - p)", 8589934584),
], ids=["unramified", "eisenstein"])
def test_symbol_cap_is_checked_before_any_slot_is_listed(tmp_path, ring, count):
    """At level 2 and p = 4294967291 stage 0 has p + 1 slots per component;
    the cap is met by counting them, where listing them ran out of
    memory."""
    path = tmp_path / "bigp.gk"
    path.write_text(_large_p_script(ring))
    proc = _run_cli_within_1_gib(path)
    assert records_of(proc.stdout) == [{
        "cmd": "greenberg", "status": "error",
        "error": {"message": f"{count} symbols exceed the cap 5000", "type": "ResourceLimit"},
    }]
