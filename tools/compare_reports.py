"""Compare the reports two expbases source trees write for the same scenarios.

    python3 tools/compare_reports.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are ``src`` directories, each holding an ``expbases``
package. The rounds are the shipped scenarios and the ``perfbench/run.py``
rounds listed in ROUNDS (generated by its ``generate``); edit ROUNDS to
compare others. Each round runs through ``expbases batch`` once per tree,
in a fresh interpreter with the BLAS thread settings of ``perfbench/run.py``.

For each report that differs apart from ``wall_time_s``, the script
prints every differing key (list positions folded into ``[]``) with the
largest relative change of its numbers, then says per round whether the
verdicts, the batch exit status and ``summary.csv`` are identical. The
shipped scenarios are also rendered one by one with ``--format csv`` on
both trees, and every line of a CSV that differs is printed. Exit
status: 0 every report and CSV identical apart from wall_time_s, 1
reports or CSVs differ but every verdict, exit status and summary.csv is
identical, 2 something of those differs.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(ROOT, "scenarios")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

ROUNDS = ("scenarios", ("dense_grams", 1), ("dense_grams", 2), ("dense_grams", 3),
          ("small_scenarios", 1), ("small_scenarios", 2), ("small_scenarios", 3),
          ("tiling_search", 1), ("tiling_search", 2), ("tiling_search", 3))

_MISSING = object()


def write_round(spec, directory: str) -> str:
    """The directory of the round's scenario files, written to directory."""
    if spec == "scenarios":
        return SHIPPED
    os.makedirs(directory)
    for i, scenario in enumerate(run.generate(*spec)):
        with open(os.path.join(directory, f"{i:02d}_{scenario['name']}.json"), "w") as handle:
            json.dump(scenario, handle, indent=1)
    return directory


def run_batch(src: str, scenarios: str, out: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "expbases.cli", "batch", "--dir", scenarios,
                           "--out-dir", out], env=env, cwd=os.path.dirname(out),
                          capture_output=True, text=True)
    return done.returncode


def render_csv(src: str, path: str) -> str:
    """The CSV of the scenario at path, rendered by the tree at src (its
    error message when the scenario is rejected)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with open(path) as handle:
        command = json.load(handle)["command"]
    done = subprocess.run([sys.executable, "-m", "expbases.cli", command, "--scenario", path,
                           "--format", "csv"], env=env, capture_output=True, text=True)
    return done.stdout + done.stderr


def compare_csv(base_src: str, new_src: str) -> bool:
    """Whether every shipped scenario renders the same CSV on both trees, printed."""
    names = sorted(name for name in os.listdir(SHIPPED) if name.endswith(".json"))
    differing = 0
    for name in names:
        path = os.path.join(SHIPPED, name)
        base, new = (render_csv(src, path) for src in (base_src, new_src))
        if base != new:
            differing += 1
            print(f"  {name} --format csv:")
            for line in difflib.unified_diff(base.splitlines(), new.splitlines(), "base", "new",
                                             lineterm="", n=0):
                print(f"    {line}")
    print(f"scenarios --format csv: {len(names) - differing} of {len(names)} identical")
    return differing == 0


def leaves(value, path: str = "") -> dict:
    """Every scalar in a JSON value, keyed by its path with list positions as []."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(leaves(item, f"{path}.{key}" if path else key))
        return out
    if isinstance(value, list):
        out = {}
        for i, item in enumerate(value):
            out.update(leaves(item, f"{path}[{i}]"))
        return out
    return {path: value}


def relative_change(a, b) -> float:
    """|a - b| / max(|a|, |b|) for two numbers, inf for anything else that differs."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def report_changes(base: dict, new: dict) -> dict:
    """Differing keys but wall_time_s, folded over list positions, with their
    largest relative change."""
    old, got = ({k: v for k, v in leaves(r).items() if k != "wall_time_s"} for r in (base, new))
    changes: dict[str, float] = {}
    for path in sorted(set(old) | set(got)):
        a, b = old.get(path, _MISSING), got.get(path, _MISSING)
        if a is b or (a == b and type(a) is type(b)):
            continue
        key = re.sub(r"\[\d+\]", "[]", path)
        change = math.inf if _MISSING in (a, b) else relative_change(a, b)
        changes[key] = max(changes.get(key, 0.0), change)
    return changes


def _read(path: str):
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return handle.read()


def compare_round(spec, base_src: str, new_src: str, work: str) -> tuple[bool, bool]:
    """(reports identical, verdicts and summary identical) for one round, printed."""
    label = spec if spec == "scenarios" else "{}:{}".format(*spec)
    here = os.path.join(work, label.replace(":", "-"))
    os.makedirs(here)
    scenarios = write_round(spec, os.path.join(here, "scenarios"))
    outs = [os.path.join(here, side) for side in ("base", "new")]
    codes = [run_batch(src, scenarios, out) for src, out in zip((base_src, new_src), outs)]
    names = sorted({name for out in outs for name in os.listdir(out)
                    if name.endswith(".json")})
    differing = 0
    verdicts_same = True
    for name in names:
        texts = [_read(os.path.join(out, name)) for out in outs]
        if None in texts:
            print(f"  {name}: only in {'new' if texts[0] is None else 'base'}")
            differing += 1
            verdicts_same = False
            continue
        base, new = (json.loads(text) for text in texts)
        verdicts_same &= base["verdicts"] == new["verdicts"]
        changes = report_changes(base, new)
        if not changes and run._strip_digest(texts[0]) != run._strip_digest(texts[1]):
            changes = {"(bytes only)": 0.0}
        if changes:
            differing += 1
            print(f"  {name}:")
            for key, change in changes.items():
                print(f"    {key}: largest relative change {change:.3g}")
    summaries = [_read(os.path.join(out, "summary.csv")) for out in outs]
    summary_same = summaries[0] is not None and summaries[0] == summaries[1]
    print(f"{label}: {len(names) - differing} of {len(names)} reports identical apart from "
          f"wall_time_s; verdicts {'identical' if verdicts_same else 'DIFFER'}; "
          f"batch exit status {codes[0]} vs {codes[1]}; "
          f"summary.csv {'identical' if summary_same else 'DIFFERS'}")
    return differing == 0, verdicts_same and summary_same and codes[0] == codes[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", help="src directory of the reference tree")
    parser.add_argument("new_src", help="src directory of the tree under comparison")
    args = parser.parse_args(argv)
    for src in (args.base_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "expbases", "cli.py")):
            parser.error(f"no expbases package under {src}")
    identical = consistent = True
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        for spec in ROUNDS:
            same, agree = compare_round(spec, args.base_src, args.new_src, work)
            identical &= same
            consistent &= agree
    identical &= compare_csv(args.base_src, args.new_src)
    return 0 if identical else 1 if consistent else 2


if __name__ == "__main__":
    sys.exit(main())
