"""Record the reference outputs that ``run.py`` checks, per workload and seed.

    python3 perfbench/make_references.py --seeds 0-31

Run from the root of an occkit checkout. Each output must first pass the
reference-free checks, and each scene the exact geometry oracle. Scenes are
stored as the occupancy sha256. Desk logits are stored as a sha256, because
the desk config must stay byte-identical; wide logits as a fixed sample
compared within the train / deploy tolerance.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import REFERENCES, WORKLOADS, digest, sample_logits  # noqa: E402

# The desk logits hash recorded for the default config (scene seed 7).
DESK_SEED7_PREFIX = "653246e4ea556bea"


def reference_for(wl, seed: int, workdir: str) -> dict:
    state = wl.prepare(seed, workdir)
    problems, _ = wl.check_scene(state, None)
    out = wl.call(state)
    problems += wl.check(state, out, None) + wl.final_check(state, out)
    if problems:
        raise SystemExit(f"{wl.name} seed {seed}: {problems}")
    ref = {"occupancy_sha256": digest(state["scene"].occupancy)}
    logits, score = out
    if wl.mode == "deploy":
        return {**ref, "logits_sha256": digest(logits), "miou": score}
    return {**ref, "logits_sample": sample_logits(logits).tolist()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range a-b")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    workdir = os.path.join(os.getcwd(), ".perfbench_out", "references")
    os.makedirs(workdir, exist_ok=True)
    with open(REFERENCES) as f:
        refs = json.load(f)
    for name in args.workload or list(WORKLOADS):
        for seed in seeds:
            ref = reference_for(WORKLOADS[name], seed, workdir)
            refs.setdefault(name, {})[str(seed)] = ref
            print(name, seed, json.dumps(ref)[:80], flush=True)
    desk = refs.get("desk_deploy", {}).get("7")
    if desk and not desk["logits_sha256"].startswith(DESK_SEED7_PREFIX):
        raise SystemExit("desk_deploy seed 7 no longer reproduces " + DESK_SEED7_PREFIX)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
