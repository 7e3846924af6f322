"""A temporary checkout of another revision, for tools that compare two trees.

`repo_root()` is the top of the git checkout these tools live in.
`rev_tree(root, rev)` extracts the committed files of `rev` (`git archive`)
into a temporary directory, yields its path and removes it afterwards, so no
worktree is registered in the repository.
"""

from __future__ import annotations

import contextlib
import subprocess
import tempfile
from pathlib import Path


def repo_root() -> Path:
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=Path(__file__).resolve().parent,
        check=True,
        capture_output=True,
        text=True,
    )
    return Path(top.stdout.strip())


def short_rev(root: Path, rev: str) -> str:
    out = subprocess.run(
        ["git", "rev-parse", "--short", "--verify", f"{rev}^{{commit}}"],
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    )
    return out.stdout.strip()


@contextlib.contextmanager
def rev_tree(root: Path, rev: str, prefix: str):
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        there = Path(tmp) / "rev"
        there.mkdir()
        archive = subprocess.Popen(["git", "archive", rev], cwd=root, stdout=subprocess.PIPE)
        extract = subprocess.run(["tar", "-x", "-C", str(there)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or extract.returncode != 0:
            raise RuntimeError(f"could not check out {rev!r}")
        yield there
