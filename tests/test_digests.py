"""Pinned replay digests: numbers a refactor must not move.

``tests/digests.json`` holds, for the platform it was written on:

- the loss parts of 8 desk training steps at seeds 7 and 60, as
  ``float.hex``.  The set-up is the benchmark's train-desk one: 4 scenes
  seeded as ``pointfuse eval --seed s`` seeds them, the weights that
  ``pointfuse eval`` starts from at its default seed 0, and the default
  training settings.
- the detections of ``pointfuse eval``'s default run (seed 0, the
  untrained weights, 2 scenes): a sha256 over every row at full
  precision, plus each detection's score.
- AP-40 per class on those detections.
- the detections and AP-40 of the same eval run on the weights of a
  short desk ``overfit`` (seed 0, ``OVERFIT_STEPS`` steps): the fewest
  steps after which Car AP-40 is above 0, so the pin guards a matched
  true positive, which the untrained weights never reach.
- per row of ``pointfuse ablate`` (``cli.ABLATION_ROWS``) at its default
  seed 0 and ``--set train.steps=ABLATE_STEPS``: the loss parts of each
  step, as ``float.hex``, and the row's ``output_sha256``.  These rows
  run the code paths the default architecture does not: ``attend``'s
  multiply mode, CrossFusion's subtract scores, the add and concat
  combines, FPS sampling and the networks without fusion links.
- every row of ``pointfuse gradcheck``'s ``gradcheck.csv`` at its
  default seed 0: the case, its error as ``float.hex``, the tolerance,
  the status and its directional error as ``float.hex``.

The file records a platform fingerprint: the numpy version, the BLAS
build and the CPU model.  On that fingerprint every value must match bit
for bit.  On any other, BLAS kernels may round differently.  Floats are
then compared at relative tolerance ``FOREIGN_RTOL``, the detections by
count and score, and the loss parts of the desk runs and of each ablate
row on their first ``FOREIGN_STEPS`` steps only.  The gradcheck rows
must keep their cases, tolerances and statuses, but neither of their
errors is compared: they are finite-difference residues near rounding
level, which another BLAS moves by far more than FOREIGN_RTOL.  Neither are
the ablate hashes, which any rounding difference changes, nor the
overfit eval: Adam divides by sqrt(v), so a
gradient entry near zero that rounds the other way moves its weight by
up to lr, and the difference between two platforms grows about tenfold
per step.  Forcing other OpenBLAS
kernels (``OPENBLAS_CORETYPE`` Sandybridge, Nehalem, Prescott) on the
recorded machine moved step 3's parts by at most 1.7e-11 relative, step 7's
by up to 1.2e-2, and each detection score by at most 3.1e-15.

A change that moves a digest on purpose first runs
``PYTHONPATH=src python tests/test_digests.py --compare``, which writes
nothing: it prints how many digests differ bytewise and how many differ
off the fingerprint (as on another platform), then how many gradcheck
cases were added or removed, shows the first few of each, and exits 1 if
any value differs off the fingerprint.  A changed case list does not set
the exit code, and a change that makes one lists those cases in
CHANGES.md.  With no off-fingerprint difference, it rewrites the file
with ``PYTHONPATH=src python tests/test_digests.py`` and says why in
CHANGES.md.
"""

import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from pointfuse import cli, pipeline
from pointfuse.boxes import DetectionResult
from pointfuse.config import RunConfig, apply_override
from pointfuse.nn import Rng

DIGESTS = Path(__file__).resolve().parent / "digests.json"
TRAIN_SEEDS = (7, 60)
TRAIN_SCENES = 4
TRAIN_STEPS = 8
MODEL_SEED = 0                 # `pointfuse eval` default --seed
OVERFIT_STEPS = 13             # 12 steps still give Car AP-40 0.0
ABLATE_STEPS = 3
FOREIGN_RTOL = 1e-8             # off the recorded fingerprint, on every float compared
FOREIGN_STEPS = 4               # ... and on the loss parts of these first steps only
LOSS_PARTS = ("total", "depth", "depth_bin", "depth_res", "rpn", "rpn_cls", "rpn_reg", "rpn_vote")


def fingerprint() -> dict:
    """What decides the rounding of a run: numpy, its BLAS build, the CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    core = os.environ.get("OPENBLAS_CORETYPE")      # overrides the kernels the CPU picks
    return {"numpy": np.__version__, "blas": build + (f" core {core}" if core else ""), "cpu": cpu}


def train_losses(seed: int) -> list[dict]:
    """Loss parts of each step of an 8-step desk run, as float.hex."""
    cfg = RunConfig()
    scenes = cli._make_scenes(cfg, Rng(seed), TRAIN_SCENES)
    model = pipeline.DetectionModel(cfg.net, Rng(MODEL_SEED).derive("model"))
    history = pipeline.train(model, scenes, dataclasses.replace(cfg.train, steps=TRAIN_STEPS),
                             cfg.loss)
    return _loss_hex(history)


def _loss_hex(history) -> list[dict]:
    return [{k: float(h[k]).hex() for k in LOSS_PARTS} for h in history]


def ablate_rows() -> dict:
    """Per ablate row: the loss parts of each step and output_sha256, as
    `pointfuse ablate --set train.steps=ABLATE_STEPS` computes them."""
    rows = {}
    for label, overrides in cli.ABLATION_ROWS:
        cfg = RunConfig()
        for key, value in {"train.steps": str(ABLATE_STEPS), **overrides}.items():
            apply_override(cfg, key, value)
        cfg.validate()
        _, _, history, state = cli._ablation_run(cfg, MODEL_SEED)
        rows[label] = {"steps": _loss_hex(history), "output_sha256": cli._state_hash(state)}
    return rows


def gradcheck_rows() -> list[list]:
    """gradcheck.csv's rows at `pointfuse gradcheck`'s default seed, with
    both errors as float.hex."""
    report = []
    rows = [[name, float(err).hex(), tol, "ok" if err <= tol else "fail"]
            for name, tol, fn in cli._gradcheck_cases(MODEL_SEED, report) for err in [fn()]]
    return [row + [float(entry[3]).hex()] for row, entry in zip(rows, report)]


def _row(d: DetectionResult) -> str:
    return " ".join([str(d.scene), d.klass, float(d.score).hex()]
                    + [float(v).hex() for v in d.box.as_array()])


def eval_results(overfit_steps: int = 0) -> tuple[dict, dict]:
    """(detections, AP-40) of `pointfuse eval` at its defaults: on the
    untrained weights, or with ``--checkpoint`` of `pointfuse overfit
    --set train.steps=<overfit_steps>` at the same seed.  overfit trains on
    its seed's scene 0, which is eval's scene 0, and a checkpoint stores
    float64 exactly, so training in place gives the same weights."""
    cfg = RunConfig()
    rng = Rng(MODEL_SEED)
    scenes = cli._make_scenes(cfg, rng, cfg.eval.n_scenes)
    model = pipeline.DetectionModel(cfg.net, rng.derive("model"))
    if overfit_steps:
        pipeline.train(model, scenes[:1], dataclasses.replace(cfg.train, steps=overfit_steps),
                       cfg.loss)
    result = pipeline.evaluate(model, scenes, cfg.eval)
    rows = [_row(d) for d in result["detections"]]
    dets = {"sha256": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
            "scores": [float(d.score).hex() for d in result["detections"]]}
    ap = {k: {"ap": None if r.flagged else float(r.ap).hex(), "flagged": bool(r.flagged),
              "n_gt": r.n_gt, "n_det": r.n_det}
          for k, r in result["ap"].items()}
    return dets, ap


def current() -> dict:
    dets, ap = eval_results()
    fit_dets, fit_ap = eval_results(OVERFIT_STEPS)
    return {"fingerprint": fingerprint(),
            "train_desk": {str(s): train_losses(s) for s in TRAIN_SEEDS},
            "detect": dets,
            "ap40": ap,
            "overfit_eval": {"steps": OVERFIT_STEPS, "detect": fit_dets, "ap40": fit_ap},
            "ablate": ablate_rows(),
            "gradcheck": gradcheck_rows()}


def _close(a_hex, b_hex) -> bool:
    return math.isclose(float.fromhex(a_hex), float.fromhex(b_hex), rel_tol=FOREIGN_RTOL)


def _eval_differences(label: str, pinned: dict, run: dict, exact: bool, same) -> list[str]:
    found = []
    want, have = pinned["detect"], run["detect"]
    if exact and want["sha256"] != have["sha256"]:
        found.append(f"{label}detections sha256 {have['sha256']} != {want['sha256']}")
    if len(want["scores"]) != len(have["scores"]):
        found.append(f"{label}{len(have['scores'])} detections, pinned {len(want['scores'])}")
    else:
        found += [f"{label}detection {i} score {b} != {a}"
                  for i, (a, b) in enumerate(zip(want["scores"], have["scores"])) if not same(a, b)]
    for klass, want_ap in pinned["ap40"].items():
        have_ap = run["ap40"].get(klass)
        if have_ap is None or {k: have_ap[k] for k in ("flagged", "n_gt", "n_det")} != \
                {k: want_ap[k] for k in ("flagged", "n_gt", "n_det")}:
            found.append(f"{label}AP-40[{klass}] {have_ap} != {want_ap}")
        elif want_ap["ap"] is not None and not same(want_ap["ap"], have_ap["ap"]):
            found.append(f"{label}AP-40[{klass}] {have_ap['ap']} != {want_ap['ap']}")
    return found


def differences(pinned: dict, run: dict) -> list[str]:
    """Where run departs from pinned: bytewise on the pinned fingerprint,
    within FOREIGN_RTOL elsewhere."""
    exact = pinned["fingerprint"] == run["fingerprint"]
    same = (lambda a, b: a == b) if exact else _close
    found = []
    runs = [(f"train seed {seed}", steps, run["train_desk"].get(seed, []))
            for seed, steps in pinned["train_desk"].items()]
    runs += [(f"ablate {label}", row["steps"], run["ablate"].get(label, {}).get("steps", []))
             for label, row in pinned["ablate"].items()]
    for label, steps, got in runs:
        if len(got) != len(steps):
            found.append(f"{label}: {len(got)} steps, pinned {len(steps)}")
            continue
        for i, (want, have) in enumerate(zip(steps, got)):
            if not exact and i >= FOREIGN_STEPS:
                break
            found += [f"{label} step {i} {k}: {have[k]} != {want[k]}"
                      for k in want if not same(want[k], have[k])]
    for label, row in pinned["ablate"].items():
        have = run["ablate"].get(label, {}).get("output_sha256")
        if exact and have != row["output_sha256"]:
            found.append(f"ablate {label} output_sha256 {have} != {row['output_sha256']}")
    # rows by case name, so a missing, extra or changed case counts once;
    # the errors on the fingerprint only, the tolerances and statuses everywhere
    keep = (lambda r: r) if exact else (lambda r: r[:1] + r[2:4])
    have_rows = {row[0]: row for row in run["gradcheck"]}
    for want in pinned["gradcheck"]:
        have = have_rows.get(want[0])
        if have is not None and keep(want) != keep(have):
            found.append(f"gradcheck {have} != {want}")
    found += case_list_changes(pinned, run)
    found += _eval_differences("", pinned, run, exact, same)
    want, have = pinned["overfit_eval"], run["overfit_eval"]
    if want["steps"] != have["steps"]:
        found.append(f"overfit eval after {have['steps']} steps, pinned {want['steps']}")
    elif exact:
        # trained weights drift between platforms as the loss parts of
        # later steps do, so they are compared on the fingerprint only
        found += _eval_differences("overfit ", want, have, exact, same)
    return found


def test_pinned_digests_reproduce():
    pinned = json.loads(DIGESTS.read_text())
    run = current()
    mode = ("bytewise" if pinned["fingerprint"] == run["fingerprint"]
            else f"rtol {FOREIGN_RTOL:g} on fingerprint {run['fingerprint']}")
    found = differences(pinned, run)
    assert float.fromhex(pinned["overfit_eval"]["ap40"]["Car"]["ap"]) > 0.0
    assert not found, f"{len(found)} digest(s) moved ({mode}):\n" + "\n".join(found[:20])


def test_a_moved_digest_is_caught_in_both_modes():
    pinned = json.loads(DIGESTS.read_text())
    seed = str(TRAIN_SEEDS[0])

    def moved(step, factor, foreign):
        run = json.loads(json.dumps(pinned))
        if foreign:
            run["fingerprint"] = dict(run["fingerprint"], cpu="another CPU")
        total = float.fromhex(pinned["train_desk"][seed][step]["total"])
        value = np.nextafter(total, math.inf) if factor is None else total * factor
        run["train_desk"][seed][step]["total"] = float(value).hex()
        return differences(pinned, run)

    last, compared = TRAIN_STEPS - 1, FOREIGN_STEPS - 1
    assert len(moved(last, None, foreign=False)) == 1          # one ulp, bytewise
    assert moved(compared, None, foreign=True) == []           # one ulp, within tolerance
    assert len(moved(compared, 1 + 2 * FOREIGN_RTOL, foreign=True)) == 1
    assert moved(last, 2.0, foreign=True) == []                # past the compared steps
    run = json.loads(json.dumps(pinned))
    run["detect"]["scores"] = run["detect"]["scores"][1:]
    assert len(differences(pinned, run)) == 1
    run = json.loads(json.dumps(pinned))
    run["overfit_eval"]["ap40"]["Car"]["ap"] = 0.0.hex()
    assert len(differences(pinned, run)) == 1                  # bytewise
    run["fingerprint"] = dict(run["fingerprint"], cpu="another CPU")
    assert differences(pinned, run) == []                      # not compared elsewhere

    def changed(edit, foreign):
        run = json.loads(json.dumps(pinned))
        if foreign:
            run["fingerprint"] = dict(run["fingerprint"], cpu="another CPU")
        edit(run)
        return differences(pinned, run)

    label = "combine-concat"
    total = float.fromhex(pinned["ablate"][label]["steps"][-1]["total"])

    def ablate_total(value):
        return lambda run: run["ablate"][label]["steps"][-1].update(total=float(value).hex())

    def ablate_hash(run):
        run["ablate"][label]["output_sha256"] = "0" * 64

    def gradcheck_error(run):
        run["gradcheck"][0][1] = float(np.nextafter(float.fromhex(run["gradcheck"][0][1]),
                                                    math.inf)).hex()

    def gradcheck_status(run):
        run["gradcheck"][0][3] = "fail"

    def gradcheck_directional(run):
        run["gradcheck"][0][4] = float(np.nextafter(float.fromhex(run["gradcheck"][0][4]),
                                                    math.inf)).hex()

    def gradcheck_dropped(run):
        del run["gradcheck"][len(run["gradcheck"]) // 2]

    ulp = ablate_total(np.nextafter(total, math.inf))
    assert ABLATE_STEPS <= FOREIGN_STEPS                       # every ablate step is compared
    for edit, bytewise, foreign in [(ulp, 1, 0),
                                    (ablate_total(total * (1 + 2 * FOREIGN_RTOL)), 1, 1),
                                    (ablate_hash, 1, 0),
                                    (gradcheck_error, 1, 0),
                                    (gradcheck_directional, 1, 0),
                                    (gradcheck_status, 1, 1),
                                    (gradcheck_dropped, 1, 1)]:
        assert len(changed(edit, foreign=False)) == bytewise
        assert len(changed(edit, foreign=True)) == foreign


def case_list_changes(pinned: dict, run: dict) -> list[str]:
    """The gradcheck cases only one side has.  A changed case list reads
    the same on every fingerprint."""
    want = {row[0]: row for row in pinned["gradcheck"]}
    have = {row[0]: row for row in run["gradcheck"]}
    return ([f"gradcheck case {name} missing, pinned {row}"
             for name, row in want.items() if name not in have]
            + [f"gradcheck case {name} not pinned: {row}"
               for name, row in have.items() if name not in want])


def compare(shown: int = 5) -> int:
    """Print the run's value differences from the pins, bytewise and off
    the fingerprint, then its gradcheck case-list changes; 1 if any value
    differs off the fingerprint, else 0."""
    pinned = json.loads(DIGESTS.read_text())
    run = current()
    foreign = dict(pinned["fingerprint"], cpu=f"not {pinned['fingerprint']['cpu']}")
    cases = case_list_changes(pinned, run)

    def values(fp):
        return [line for line in differences(pinned, dict(run, fingerprint=fp)) if line not in cases]
    found = {"bytewise difference(s)": values(pinned["fingerprint"]),
             "off-fingerprint difference(s)": values(foreign),
             "gradcheck case-list change(s)": cases}
    for what, lines in found.items():
        print(f"{len(lines)} {what}")
        for line in lines[:shown]:
            print(f"  {line}")
    return 1 if found["off-fingerprint difference(s)"] else 0


def test_compare_counts_both_modes_and_fails_only_off_the_fingerprint(monkeypatch, capsys):
    pinned = json.loads(DIGESTS.read_text())
    seed = str(TRAIN_SEEDS[0])
    total = float.fromhex(pinned["train_desk"][seed][0]["total"])
    for value, want, code in [(total, "0 bytewise difference(s)\n0 off-fingerprint", 0),
                              (np.nextafter(total, math.inf), "1 bytewise difference(s)\n  train"
                               f" seed {seed} step 0 total", 0),
                              (total * (1 + 2 * FOREIGN_RTOL), "1 off-fingerprint", 1)]:
        run = json.loads(json.dumps(pinned))
        run["train_desk"][seed][0]["total"] = float(value).hex()
        monkeypatch.setattr(sys.modules[__name__], "current", lambda: run)
        assert compare() == code
        assert want in capsys.readouterr().out
    # an added or removed gradcheck case is counted apart and passes
    run = json.loads(json.dumps(pinned))
    dropped = run["gradcheck"].pop(0)
    run["gradcheck"].append(["new-case"] + dropped[1:])
    monkeypatch.setattr(sys.modules[__name__], "current", lambda: run)
    assert compare() == 0
    assert ("0 bytewise difference(s)\n0 off-fingerprint difference(s)\n"
            f"2 gradcheck case-list change(s)\n  gradcheck case {dropped[0]} missing"
            in capsys.readouterr().out)


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--compare"]):
        sys.exit(f"usage: {sys.argv[0]} [--compare]")
    if sys.argv[1:] == ["--compare"]:
        sys.exit(compare())
    DIGESTS.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
