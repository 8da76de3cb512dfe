"""Command-line behaviour: exit codes, artifacts, manifests, replay.

Training commands run with steps cut to a handful via --set so the
whole file stays in the seconds range.  Bitwise reproduction of a real
200-step run is an acceptance criterion, not a unit test.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from pointfuse import cli


def run(*argv):
    return cli.main(list(argv))


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- parsing and exit codes ---------------------------------------------------------


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_module_entry_point_runs_without_an_install():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "pointfuse", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: pointfuse" in done.stdout
    assert "replay" in done.stdout


def test_bad_override_is_config_error(capsys):
    assert run("check", "--set", "net.depth_bins=many") == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_key_is_config_error():
    assert run("check", "--set", "net.no_such_field=1") == 2


def test_malformed_set_item():
    assert run("check", "--set", "net.depth_bins") == 2


def test_invalid_config_rejected_before_work():
    # stage widths must decrease; validate() runs before any command body
    assert run("overfit", "--set", "net.raw_stages=[8, 8]") == 2


def test_overfit_requires_out(capsys):
    assert run("overfit", "--set", "train.steps=1") == 2
    assert "requires --out" in capsys.readouterr().err


def test_missing_config_file_reports_error():
    assert run("check", "--config", "/nonexistent/run.cfg") in (1, 2)


# -- check --------------------------------------------------------------------------


def test_check_passes_and_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "check")
    assert run("check", "--out", out) == 0
    text = capsys.readouterr().out
    assert "11/11 checks passed" in text
    lines = read_manifest(out)
    assert lines[0]["kind"] == "run"
    assert lines[0]["command"] == "check"
    with open(os.path.join(out, "checks.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "check,status,detail"
    assert len(rows) == 12
    assert all(",ok," in row for row in rows[1:])


# -- overfit and its manifest ----------------------------------------------------------


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "overfit")
    rc = cli.main(["overfit", "--out", out, "--seed", "7",
                   "--set", "train.steps=5"])
    assert rc == 0
    return out


def test_overfit_artifacts(overfit_run):
    for name in ("manifest.jsonl", "losses.csv", "checkpoint.bin",
                 "detections_0000.txt", "summary.csv"):
        assert os.path.exists(os.path.join(overfit_run, name)), name
    with open(os.path.join(overfit_run, "losses.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0].startswith("step,scene,total,")
    assert len(rows) == 6


def test_manifest_records_run_then_hashes(overfit_run):
    lines = read_manifest(overfit_run)
    run_line, artifacts = lines[0], lines[1:]
    assert run_line["kind"] == "run"
    assert run_line["seed"] == 7
    assert run_line["config"]["train.steps"] == 5
    assert [a["name"] for a in artifacts] == [
        "losses.csv", "checkpoint.bin", "detections_0000.txt", "summary.csv"]
    for a in artifacts:
        assert a["sha256"] == sha256(os.path.join(overfit_run, a["name"]))


def test_replay_reproduces_bitwise(overfit_run, tmp_path, capsys):
    out = str(tmp_path / "replayed")
    rc = run("replay", "--manifest", os.path.join(overfit_run, "manifest.jsonl"),
             "--out", out)
    assert rc == 0
    assert "bit for bit" in capsys.readouterr().out
    for name in ("losses.csv", "checkpoint.bin", "detections_0000.txt"):
        assert sha256(os.path.join(out, name)) == sha256(os.path.join(overfit_run, name))


def test_replay_detects_tampering(overfit_run, tmp_path, capsys):
    lines = read_manifest(overfit_run)
    for line in lines:
        if line.get("name") == "summary.csv":
            line["sha256"] = "0" * 64
    doctored = tmp_path / "manifest.jsonl"
    doctored.write_text("".join(json.dumps(l, sort_keys=True) + "\n" for l in lines))
    rc = run("replay", "--manifest", str(doctored), "--out", str(tmp_path / "out"))
    assert rc == 1
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    assert "differ from the manifest" in captured.err


def test_replay_rejects_headerless_manifest(tmp_path):
    bad = tmp_path / "manifest.jsonl"
    bad.write_text(json.dumps({"kind": "artifact", "name": "x", "sha256": "0"}) + "\n")
    assert run("replay", "--manifest", str(bad), "--out", str(tmp_path / "out")) == 2


# -- genscene -----------------------------------------------------------------------


def test_genscene_writes_dataset_layout(tmp_path):
    out = str(tmp_path / "scene")
    assert run("genscene", "--out", out, "--seed", "3") == 0
    names = {a["name"] for a in read_manifest(out)[1:]}
    assert any(n.endswith(".bin") for n in names)
    assert any("calib" in n for n in names)
    assert any("label" in n for n in names)
    for name in names:
        assert os.path.exists(os.path.join(out, name)), name


def test_genscene_seeds_differ(tmp_path):
    a, b, c = (str(tmp_path / n) for n in "abc")
    assert run("genscene", "--out", a, "--seed", "3") == 0
    assert run("genscene", "--out", b, "--seed", "3") == 0
    assert run("genscene", "--out", c, "--seed", "4") == 0
    digests = lambda d: [l["sha256"] for l in read_manifest(d)[1:]]  # noqa: E731
    assert digests(a) == digests(b)
    assert digests(a) != digests(c)


# -- eval and ablate -------------------------------------------------------------------


def test_eval_writes_ap_table(tmp_path, overfit_run):
    out = str(tmp_path / "eval")
    rc = run("eval", "--out", out, "--seed", "7",
             "--checkpoint", os.path.join(overfit_run, "checkpoint.bin"),
             "--set", "eval.n_scenes=1")
    assert rc == 0
    with open(os.path.join(out, "ap.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0].startswith("class,")
    assert {r.split(",")[0] for r in rows[1:]} == {"Car", "Pedestrian", "Cyclist"}
    assert os.path.exists(os.path.join(out, "detections_0000.txt"))


def test_replay_of_eval_with_checkpoint_reproduces_bitwise(tmp_path, overfit_run, capsys):
    ckpt = tmp_path / "weights.bin"
    ckpt.write_bytes(open(os.path.join(overfit_run, "checkpoint.bin"), "rb").read())
    out = str(tmp_path / "eval")
    assert run("eval", "--out", out, "--seed", "7", "--checkpoint", str(ckpt),
               "--set", "eval.n_scenes=1") == 0
    recorded = read_manifest(out)[0]["checkpoint"]
    assert recorded == {"path": str(ckpt), "sha256": sha256(str(ckpt))}
    capsys.readouterr()
    manifest = os.path.join(out, "manifest.jsonl")
    assert run("replay", "--manifest", manifest, "--out", str(tmp_path / "again")) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "all 2 artifacts reproduced bit for bit"
    assert [line.split()[0] for line in lines[:-1]][-2:] == ["ok", "ok"]

    # a changed checkpoint is refused before any work, naming the file
    ckpt.write_bytes(ckpt.read_bytes() + b"\0")
    assert run("replay", "--manifest", manifest, "--out", str(tmp_path / "changed")) == 2
    assert str(ckpt) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "changed")
    ckpt.unlink()
    assert run("replay", "--manifest", manifest, "--out", str(tmp_path / "gone")) == 2
    assert "missing" in capsys.readouterr().err


def test_ablate_rows_have_distinct_hashes(tmp_path, capsys):
    out = str(tmp_path / "ablate")
    assert run("ablate", "--out", out, "--set", "train.steps=1") == 0
    with open(os.path.join(out, "ablation.csv")) as fh:
        rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
    names = [r[0] for r in rows]
    hashes = [r[-1] for r in rows]
    assert "reference" in names
    assert len(rows) >= 7
    assert len(set(hashes)) == len(hashes)
