import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from xml.etree import ElementTree

import pytest

import toric_additive
from toric_additive.additive import classify_rays
from toric_additive.cli import main
from toric_additive.coxring import parse_poly
from toric_additive.errors import InternalInconsistency, NotLocallyNilpotent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_text(capsys):
    code, out, err = run_cli(capsys, "validate", "--example", "p2")
    assert code == 0 and not err
    assert "fan: p2" in out
    assert "p1 = (1, 0)" in out
    assert "maximal cones: (p1,p2) (p2,p3) (p3,p1)" in out
    assert "valid: yes" in out


def test_validate_json(capsys):
    code, out, _ = run_cli(capsys, "validate", "--example", "f1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["rays"] == [[1, 0], [0, 1], [-1, -1], [0, -1]]
    assert [1, 2] in doc["maximal_cones"]
    assert len(doc["maximal_cones"]) == 4


def test_roots_json_golden(capsys):
    code, out, _ = run_cli(capsys, "roots", "--example", "p2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_ray = {e["ray"]: sorted(map(tuple, e["roots"]))
              for e in doc["roots_by_ray"]}
    assert by_ray == {
        1: [(-1, 0), (-1, 1)],
        2: [(0, -1), (1, -1)],
        3: [(0, 1), (1, 0)],
    }
    assert sorted(map(tuple, doc["positive"])) == [(-1, 0), (0, -1), (1, -1)]
    assert len(doc["collections"]) == 3
    assert doc["unipotent"] == []


def test_roots_text_mentions_collections(capsys):
    code, out, _ = run_cli(capsys, "roots", "--example", "p1xp1")
    assert code == 0
    assert out.count("complete collection at") == 4
    assert "regular vector u: (-1, -1)" in out


def test_classify_json_golden(capsys):
    code, out, _ = run_cli(capsys, "classify", "--example", "f1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["admits_action"] is True
    assert doc["num_classes"] == 2
    assert doc["wide"] is False
    assert doc["d"] == 1
    assert doc["basis"]["ray_indices"] == [1, 2]
    assert doc["basis"]["alpha"] == [[1, 1], [0, 1]]
    assert doc["regular_vector"] == [-1, -1]
    assert doc["root_counts"] == [1, 2, 1, 0]


NO_ACTION_TEXT = "1 0\n-1 3\n0 -1\n-1 -1\n1 -2\n"


@pytest.fixture
def no_action_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(NO_ACTION_TEXT))


def test_classify_text_non_admitting(no_action_stdin, capsys):
    code, out, _ = run_cli(capsys, "classify", "--input", "-")
    assert code == 0
    assert "admits additive action: no" in out
    assert "isomorphism classes: 0" in out
    assert "complete collections: 0" in out


def test_actions_json_golden(capsys):
    code, out, _ = run_cli(capsys, "actions", "--example", "p2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["actions"]["normalized"] == [
        "x1 <- x1 + x3*s1",
        "x2 <- x2 + x3*s2",
        "x3 <- x3",
    ]
    assert doc["actions"]["non_normalized"] == [
        "x1 <- x1 + x3*s1",
        "x2 <- x2 + x3*s2 + x1*s1 + 1/2*x3*s1^2",
        "x3 <- x3",
    ]
    assert doc["ring"][:3] == ["x1", "x2", "x3"]


def test_actions_text_wide(capsys):
    code, out, _ = run_cli(capsys, "actions", "--example", "wide")
    assert code == 0
    assert "non-normalized action: none (wide fan, single class)" in out
    assert "x1 <- x1 + x3*x4^2*s1" in out
    assert "x2 <- x2 + x3^2*x4*s2" in out


def test_action_strings_parse_back(capsys):
    code, out, _ = run_cli(capsys, "actions", "--example", "p112",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    c = classify_rays([tuple(r) for r in doc["rays"]])
    ring = c.family.ring
    for text, img in zip(doc["actions"]["non_normalized"],
                         c.non_normalized_action.images):
        lhs, rhs = text.split(" <- ")
        assert parse_poly(ring, rhs) == img


def test_verify_json_and_seed_env(capsys, monkeypatch):
    monkeypatch.delenv("TORIC_ADDITIVE_SEED", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--example", "p112",
                           "--format", "json", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["seed"] == 3
    monkeypatch.setenv("TORIC_ADDITIVE_SEED", "7")
    code, out, _ = run_cli(capsys, "verify", "--example", "p112",
                           "--format", "json", "--seed", "3")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_verify_env_seed_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("TORIC_ADDITIVE_SEED", "pi")
    code, _, err = run_cli(capsys, "verify", "--example", "p2")
    assert code == 1
    assert "TORIC_ADDITIVE_SEED" in err


def test_verify_text(capsys, monkeypatch):
    monkeypatch.delenv("TORIC_ADDITIVE_SEED", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--example", "p1xp1",
                           "--box", "6")
    assert code == 0
    assert "all checks passed" in out
    assert "roots_box_oracle: PASS" in out


def test_verify_widens_a_box_too_small_for_the_roots(capsys, monkeypatch):
    # a box that cuts off roots is widened to the largest |coordinate| of
    # any root, and "box" reads the half-width scanned; a wider box stays
    monkeypatch.delenv("TORIC_ADDITIVE_SEED", raising=False)
    for argv, scanned in ((("--example", "p2", "--box", "0"), 1),
                          (("--example", "f:11"), 11),
                          (("--example", "f:11", "--box", "12"), 12)):
        code, out, err = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0 and not err, argv
        doc = json.loads(out)
        assert doc["box"] == scanned and doc["all_pass"], argv
        assert doc["checks"]["roots_box_oracle"]


def test_verify_other_failures_keep_exit_3(capsys, monkeypatch):
    # a failing oracle is a bug, not a usage problem
    monkeypatch.delenv("TORIC_ADDITIVE_SEED", raising=False)
    monkeypatch.setattr("toric_additive.verify.check_group_law",
                        lambda action: False)
    code, out, err = run_cli(capsys, "verify", "--example", "f:11")
    assert code == 3 and not err
    assert "group_law_normalized: FAIL" in out


def test_invalid_fan_exit_2(capsys, monkeypatch, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("2 4\n0 1\n-1 -1\n")
    code, _, err = run_cli(capsys, "validate", "--input", str(f))
    assert code == 2
    assert "invalid fan" in err and "not primitive" in err
    f.write_text("1 0\n0 1\n-1 0\n")
    code, _, err = run_cli(capsys, "validate", "--input", str(f))
    assert code == 2
    assert "angular gap" in err


FAN_COMMANDS = ("validate", "roots", "classify", "actions", "verify", "render")


def test_rank_3_input_rejected(capsys, tmp_path):
    f = tmp_path / "p3.txt"
    # every ray is checked, not only the first: in the mixed fan the
    # primitive (0, 1, 0) is refused for its rank
    for text in ("1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n", "1 0\n0 1 0\n-1 -1\n"):
        f.write_text(text)
        for cmd in FAN_COMMANDS:
            code, _, err = run_cli(capsys, cmd, "--input", str(f))
            assert code == 2, cmd
            assert "rank" in err and "not primitive" not in err, cmd


def test_unknown_example_exit_1(capsys):
    code, _, err = run_cli(capsys, "roots", "--example", "nosuch")
    assert code == 1
    assert "unknown example 'nosuch'" in err
    assert "f:a" in err


def test_bad_json_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"no_rays": []}')
    code, _, err = run_cli(capsys, "classify", "--input", str(f))
    assert code == 1
    assert '"rays"' in err
    f.write_text('{"rays": [[1, 0],')
    code, _, err = run_cli(capsys, "classify", "--input", str(f))
    assert code == 1
    # coordinates must be JSON integers: nothing is rounded or coerced
    for rays, named in (('[[1.5, 0], [0, 1], [-1, -1]]', "ray 1"),
                        ('[[1, 0], [true, 1], [-1, -1]]', "ray 2"),
                        ('["10", [0, 1], [-1, -1]]', "ray 1"),
                        ('5', '"rays"')):
        f.write_text(f'{{"rays": {rays}}}')
        code, out, err = run_cli(capsys, "classify", "--input", str(f))
        assert (code, out) == (1, ""), rays
        assert named in err and "Traceback" not in err, rays


def test_json_name_and_normalize_must_be_typed(capsys, tmp_path):
    f = tmp_path / "fan.json"
    rays = [[1, 0], [0, 1], [-1, -1]]
    for extra, named in (({"name": 5}, '"name"'),
                         ({"name": None}, "null"),
                         ({"normalize_rays": 1}, '"normalize_rays"'),
                         ({"normalize_rays": "yes"}, '"yes"')):
        f.write_text(json.dumps({"rays": rays, **extra}))
        for cmd in ("validate", "render"):
            code, out, err = run_cli(capsys, cmd, "--input", str(f))
            assert (code, out) == (1, ""), (extra, cmd)
            assert named in err and "Traceback" not in err, (extra, cmd)


def test_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify",
                           "--input", str(tmp_path / "absent.txt"))
    assert code == 1


def test_usage_error_exits_1(capsys):
    for argv in (["classify"],
                 ["classify", "--example", "p2", "--input", "x.txt"],
                 [],
                 ["sweep", "--bound", "1", "--heavy-stride", "0"],
                 ["sweep", "--bound", "1", "--nonadmitting-stride", "0"],
                 ["verify", "--example", "p2", "--box", "-1"],
                 # the report widens each fan's box itself
                 ["sweep", "--bound", "1", "--light", "--box", "5"],
                 ["sweep", "--bound", "0", "--light"],
                 ["sweep", "--bound", "1", "--min-rays", "9",
                  "--max-rays", "3", "--light"],
                 ["sweep", "--bound", "1", "--max-rays", "1", "--light"],
                 # only verify and sweep draw random points
                 *([cmd, "--example", "p2", "--seed", "1"] for cmd in
                   ("validate", "roots", "classify", "actions", "render")),
                 ["examples", "--seed", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv


def test_json_input_with_name_and_normalization(capsys, tmp_path):
    f = tmp_path / "fan.json"
    f.write_text(json.dumps({
        "name": "stretched plane",
        "rays": [[3, 0], [0, 2], [-5, -5]],
        "normalize_rays": True,
    }))
    code, out, _ = run_cli(capsys, "classify", "--input", str(f),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "stretched plane"
    assert doc["rays"] == [[1, 0], [0, 1], [-1, -1]]
    assert doc["num_classes"] == 2


def test_text_input_comments_and_commas(capsys, tmp_path):
    f = tmp_path / "fan.txt"
    f.write_text("# projective plane\n1, 0\n0 1  # second ray\n\n-1 -1\n")
    code, out, _ = run_cli(capsys, "validate", "--input", str(f))
    assert code == 0
    assert "valid: yes" in out


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "classify", "--example", "p2",
                           "--format", "json", "-o", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["num_classes"] == 2


def test_render_svg(capsys, tmp_path):
    # a JSON name with markup characters lands escaped in the SVG title
    f = tmp_path / "fan.json"
    f.write_text(json.dumps(
        {"name": "a<b&c", "rays": [[1, 0], [0, 1], [-1, -1], [0, -1]]}))
    for name, source in (("f1", ("--example", "f1")),
                         ("a<b&c", ("--input", str(f)))):
        code, out, _ = run_cli(capsys, "render", *source)
        assert code == 0
        assert out.lstrip().startswith("<svg")
        assert out.count('class="ray-arrow"') == 4
        assert 'class="root-point"' in out
        assert "</svg>" in out
        root = ElementTree.fromstring(out)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert name in texts


def test_examples_listing(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    for name in ("p2", "p1xp1", "f1", "p112", "p113", "wide", "f:a"):
        assert name in out
    code, out, _ = run_cli(capsys, "examples", "--format", "json")
    assert code == 0
    assert "f:a" in json.loads(out)


def test_hirzebruch_family_parameter(capsys):
    code, out, _ = run_cli(capsys, "classify", "--example", "f:4",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rays"] == [[1, 0], [0, 1], [-1, -4], [0, -1]]
    assert doc["d"] == 4
    assert doc["num_classes"] == 2


def test_demos_run(tmp_path):
    demos = Path(__file__).resolve().parents[1] / "demos"
    env = _subprocess_env()
    for argv in (["tour_projective_plane.py"], ["tour_catalog.py"],
                 ["render_fan.py", "p112", str(tmp_path / "f.svg")]):
        out = subprocess.run([sys.executable, str(demos / argv[0])]
                             + argv[1:], capture_output=True, text=True,
                             env=env, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert "FAIL" not in out.stdout, out.stdout
    assert (tmp_path / "f.svg").read_text().lstrip().startswith("<svg")


def test_sweep_small(capsys, monkeypatch):
    monkeypatch.delenv("TORIC_ADDITIVE_SEED", raising=False)
    code, out, _ = run_cli(capsys, "sweep", "--bound", "1",
                           "--nonadmitting-stride", "1")
    assert code == 0
    assert "no violations" in out
    code, out, _ = run_cli(capsys, "sweep", "--bound", "1", "--light",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_fans"] > 0
    assert doc["admitting"] <= doc["total_fans"]
    assert doc["all_clean"] is True
    assert doc["heavy_checked"] == 0


def test_sweep_violations_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(
        "toric_additive.sweep.verification_report",
        lambda c, box=10, seed=0: {"all_pass": False,
                                   "checks": {"planted": False}})
    code, out, err = run_cli(capsys, "sweep", "--bound", "1")
    # stderr holds the progress line alone: a violation is reported on
    # stdout and in the exit code, not as an error
    assert code == 3 and err == "light phase: 122 fans\n"
    assert out.splitlines()[-1].startswith(
        "VIOLATIONS: {'verification': ")


def test_sweep_progress_on_stderr(capsys, monkeypatch):
    # 3,325 admitting fans at bound 2; with stride 5, 665 are checked, so
    # the heavy phase reports at 200, 400 and 600.  Stdout is the report
    # alone, the same as a run without progress.
    monkeypatch.delenv("TORIC_ADDITIVE_SEED", raising=False)
    checked = []
    monkeypatch.setattr("toric_additive.sweep.verification_report",
                        lambda c, box=10, seed=0: checked.append(c) or
                        {"all_pass": True, "checks": {}})
    argv = ("sweep", "--bound", "2", "--heavy-stride", "5",
            "--nonadmitting-stride", "1000", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.splitlines() == ["light phase: 11396 fans",
                                "heavy phase: 200 fans",
                                "heavy phase: 400 fans",
                                "heavy phase: 600 fans"]
    doc = json.loads(out)
    assert (doc["heavy_checked"], doc["nonadmitting_sampled"]) == (665, 9)
    assert len(checked) == 665 + 9
    monkeypatch.setattr("toric_additive.cli._progress", None)
    code, quiet, err = run_cli(capsys, *argv)
    assert code == 0 and not err
    timing = ("t_enumerate_light", "t_heavy")
    assert ({k: v for k, v in json.loads(quiet).items() if k not in timing}
            == {k: v for k, v in doc.items() if k not in timing})


@pytest.mark.parametrize("error,prefix", [
    (InternalInconsistency, "internal inconsistency: "),
    (NotLocallyNilpotent, "internal error: "),
])
def test_internal_errors_exit_3(capsys, monkeypatch, error, prefix):
    def broken(fan, **kwargs):
        raise error("planted")

    monkeypatch.setattr("toric_additive.cli.classify", broken)
    code, out, err = run_cli(capsys, "classify", "--example", "p2")
    assert code == 3 and out == ""
    assert err == prefix + "planted\n"


def test_sweep_with_more_rays_than_the_pool_is_an_error(capsys):
    # bound 1 has 8 pool rays, so no fan has 9; an empty sweep is no pass
    code, out, err = run_cli(capsys, "sweep", "--bound", "1", "--min-rays",
                             "9", "--max-rays", "9", "--light")
    assert (code, out) == (1, "")
    assert err.startswith("error: min_rays ")


def _subprocess_env():
    """Environment in which a child process imports the same
    ``toric_additive`` package as this process, whatever the cwd."""
    env = dict(os.environ)
    package_root = str(Path(toric_additive.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def _console_script():
    """Command that runs the ``toric-additive`` console script.

    The script installed for this interpreter is used when there is one.
    An uninstalled checkout has none, so the ``[project.scripts]`` target
    declared in its ``pyproject.toml`` is run the way the generated
    wrapper runs it.
    """
    script = shutil.which("toric-additive",
                          path=sysconfig.get_path("scripts"))
    if script is not None:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["toric-additive"]
    module, attr = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_console_script_subprocess():
    env = _subprocess_env()
    out = subprocess.run(
        _console_script() + ["classify", "--example", "p2",
                             "--format", "json"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["num_classes"] == 2
    bad = subprocess.run(
        [sys.executable, "-m", "toric_additive.cli", "validate",
         "--example", "nosuch"],
        capture_output=True, text=True, env=env)
    assert bad.returncode == 1


# One sha256 (first 16 hex digits) per subcommand over "cmd/fan/format/exit"
# and stdout, for every fan below in both formats.  "-" is the
# non-admitting fan of no_action_stdin read from stdin.  Stdout bytes and
# exit codes are part of the CLI contract: a digest changes only with a
# deliberate change of output.
STDOUT_CONTRACT = {
    "validate": "d85d21566aeed6e9",
    "roots": "028990e85b2904c4",
    "classify": "b736a2711813500f",
    "actions": "f9992e54f4471467",
    "verify": "39053972653d51cb",
    "render": "9d2181f96d1d5c33",
    "examples": "8131956e6275e881",
}


@pytest.mark.parametrize("cmd", sorted(STDOUT_CONTRACT))
def test_stdout_contract(cmd, capsys, monkeypatch):
    monkeypatch.delenv("TORIC_ADDITIVE_SEED", raising=False)
    fans = [None] if cmd == "examples" else ["p2", "wide", "f:5", "-"]
    h = hashlib.sha256()
    for fan in fans:
        for fmt in ("text", "json"):
            argv = [cmd, "--format", fmt]
            if fan == "-":
                monkeypatch.setattr("sys.stdin", io.StringIO(NO_ACTION_TEXT))
                argv += ["--input", "-"]
            elif fan is not None:
                argv += ["--example", fan]
            code, out, _ = run_cli(capsys, *argv)
            h.update(f"{cmd}/{fan}/{fmt}/{code}\n{out}".encode())
    assert h.hexdigest()[:16] == STDOUT_CONTRACT[cmd]
