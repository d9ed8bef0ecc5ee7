"""Compare the CLI's exit codes, stdout and stderr between the working
tree and a git revision.

    python scripts/stdout_diff.py REV

REV is checked out into a temporary detached worktree.  Every argv of the
fixed families below runs through `python -m tcalab.cli` against each
tree's `src`, and the script prints how many argv it compared and the first
one whose exit code, stdout or stderr differs.  The stderr of `selftest`
carries timings and is not compared.  It exits 0 when every argv agrees
and 1 on a difference.  The worktree is removed afterwards.  Standard
library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _up_to(n: int) -> list[str]:
    """The partitions of size 0..n in the CLI's syntax ('0' is empty)."""
    return [",".join(map(str, p)) or "0" for k in range(n + 1) for p in _partitions(k)]


def families() -> list[list[str]]:
    """The argv compared, in a fixed order."""
    # every shape up to size 10, then the one-column shapes 1^k up to k = 14,
    # whose umbral images use the longest Stirling rows
    argvs = [["charpoly", p] for p in _up_to(10)]
    argvs += [["charpoly", ",".join("1" * k)] for k in range(11, 15)]
    argvs += [["ktheory", "conv", f"{b}[{p}]"] for b in "LQ" for p in _up_to(6)]
    specs = [f"{b}[{p}]" for b in "QL" for p in _up_to(4)]
    argvs += [["ktheory", "pair", x, y] for x in specs for y in specs]
    argvs += [["ktheory", "mult", f"{b}[{p}]", f"{b}[{q}]"]
              for b in "LQ" for p in _up_to(3) for q in _up_to(3)]
    argvs += [["hilbert", f"P[{p}]-S[{q}]"] for p in _up_to(4) for q in _up_to(4)]
    argvs += [["bgg", p] for p in _up_to(6)]
    argvs += [["quiver", "verify-bgg", p] for p in _up_to(7)]
    argvs += [["quiver", "hom", p, q] for p in _up_to(4) for q in _up_to(4)]
    argvs += [["quiver", "socle", f"{b}[{p}]"] for b in "QL" for p in _up_to(5)]
    # sums that come to one symbol, and the spec refusals of socle
    argvs += [["quiver", "socle", spec] for spec in (
        "+1Q[2,1,0]", "3L[2]-2L[2]", "Q[1]+Q[2]-Q[2]", "Q[1]-Q[1]", "L[1]+L[2]",
        "Q[1]+L[1]", "S[1]-S[1]+Q[1]", "P[2]", "junk Q[1]", "Q[1] junk", "Q[1,2]", "Q[1,,2]")]
    argvs += [["fourier", f"{b}[{p}]"] for b in "SPLQ" for p in _up_to(4)]
    argvs += [["efw", p, str(e)] for p in _up_to(3) for e in range(1, 4)]
    argvs += [["efw", p, str(e), "--bound", b] for b in ("0", "10")
              for p in _up_to(2) for e in (1, 2)]
    argvs += [["poincare", p, str(e), "--trunc", "6"] for p in _up_to(3) for e in range(1, 4)]
    argvs.append(["selftest", "--size", "3"])
    # d below the first part is refused; `depth 0 0` is the infinite depth
    argvs += [[cmd, p, str(d)] for cmd in ("modify", "localcoh", "depth")
              for p in _up_to(4) for d in range(6)]
    argvs += [["--format", "table", *argv] for argv in (
        ["charpoly", "2,1"], ["depth", "0", "0"], ["ktheory", "conv", "Q[2,1]"],
        ["quiver", "verify-bgg", "2,1"], ["poincare", "1", "2", "--trunc", "4"])]
    argvs += [["--version"], ["--help"]]
    argvs += [[cmd, "--help"] for cmd in ("charpoly", "hilbert", "modify", "localcoh",
              "depth", "bgg", "ktheory", "fourier", "efw", "poincare", "quiver", "selftest")]
    # refused requests: operand miscount, wrong class kind, bad partition
    argvs += [[], ["nonsense"], ["charpoly"], ["charpoly", "1,2"], ["hilbert", "L[1]"],
              ["modify", "2,1", "-1"], ["localcoh", "x", "2"], ["depth", "2", "1"],
              ["bgg", "2,1,3"], ["ktheory", "conv"], ["ktheory", "conv", "S[1]"],
              ["ktheory", "mult", "L[1]"], ["ktheory", "mult", "L[1]", "S[1]"],
              ["ktheory", "pair", "L[1]", "Q[1]", "Q[1]"], ["ktheory", "pair", "P[1]", "L[1]"],
              ["ktheory", "frob", "L[1]"], ["fourier", "L[1]+Q[1]"],
              ["efw", "1", "1", "--bound", "-2"], ["poincare", "1,2", "1"],
              ["quiver", "hom", "2"], ["quiver", "socle", "2Q[1]"], ["quiver", "socle", "S[1]"],
              ["quiver", "verify-bgg", "2", "1"], ["quiver", "verify-bgg", "3,4"],
              ["selftest", "--size", "0"]]
    # a part no index can count, in a K-class and in a module class
    argvs += [["ktheory", "conv", "Q[99999999999999999999]"],
              ["ktheory", "pair", "Q[99999999999999999999]", "L[1]"],
              ["fourier", "S[99999999999999999999]"]]
    return argvs


def run_family(root: Path, argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each argv, run on root/src, two at a
    time; the stderr of `selftest`, which carries timings, reads empty."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TCALAB_")}
    env["PYTHONPATH"] = str(Path(root) / "src")

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "tcalab.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=root)
        return proc.returncode, proc.stdout, "" if "selftest" in argv else proc.stderr

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run, argvs))


def first_difference(argvs, ours, theirs) -> int | None:
    """Index of the first argv whose (exit code, stdout, stderr) differ,
    else None."""
    return next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), None)


def compare(root_a: Path, root_b: Path, argvs: list[list[str]]) -> tuple[int, str | None]:
    """Run argvs on both trees; returns (argv compared, report of the first
    difference or None)."""
    ours, theirs = run_family(root_a, argvs), run_family(root_b, argvs)
    return len(argvs), report(argvs, ours, theirs)


def report(argvs, ours, theirs) -> str | None:
    i = first_difference(argvs, ours, theirs)
    if i is None:
        return None
    return (f"first difference: {' '.join(argvs[i])}\n"
            f"  first tree:  exit {ours[i][0]}, stdout {ours[i][1]!r}, stderr {ours[i][2]!r}\n"
            f"  second tree: exit {theirs[i][0]}, stdout {theirs[i][1]!r}, "
            f"stderr {theirs[i][2]!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        "--quiet", str(tree), rev], check=True)
        try:
            count, diff = compare(tree, ROOT, families())
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=True)
    if diff is None:
        print(f"{count} argv compared against {rev}: identical exit codes, stdout and stderr")
        return 0
    print(f"{count} argv compared against {rev} (first tree {rev}, second the "
          f"working tree); {diff}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
