"""A checkout of a base revision for the comparison scripts."""

from __future__ import annotations

import contextlib
import os
import subprocess
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def base_tree(rev: str, base_dir: str | None = None):
    """Yield a directory holding ``rev``: ``base_dir`` when one is given,
    and otherwise a temporary detached ``git worktree`` of the repository,
    removed with its entry under ``.git/worktrees`` on exit."""
    if base_dir is not None:
        yield base_dir
        return
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "base")
        subprocess.run(["git", "worktree", "add", "--detach", path, rev],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", path],
                           cwd=ROOT, check=True, capture_output=True)
