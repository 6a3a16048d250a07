"""The CLI fixtures with pinned report hashes, run through ``prodcodes.cli.main``.

The fixture list and the pinned hashes are read from the repository's test
fixtures, so the benchmark checks exactly what the test suite pins.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from .harness import Failed, expect

SPEC_PATH = os.path.join("tests", "fixtures", "fixtures.json")


def cli_ok(argv: list[str]) -> None:
    """``prodcodes.cli.main(argv)`` with its output captured; a nonzero exit
    raises ``Failed`` with the captured stderr."""
    from prodcodes import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise Failed(f"exit {rc} from {argv[0]}: {err.getvalue().strip()}")


class PinnedFixtures:
    """Builds each fixture's instance once, then replays its run command."""

    def __init__(self, workdir: str, names: list[str]) -> None:
        with open(SPEC_PATH) as fh:
            spec = json.load(fh)
        by_name = {fx["name"]: fx for fx in spec["fixtures"]}
        self.workdir = workdir
        self.pinned = spec["pinned_hashes"]
        self.runs: dict[str, list[str]] = {}
        for name in names:
            fx = by_name[name]
            argv = list(fx["run"])
            if "__BUILD__" in argv:
                path = os.path.join(workdir, f"{name}-instance.json")
                cli_ok(list(fx["build"]) + ["--out", path])
                argv = [path if a == "__BUILD__" else a for a in argv]
            self.runs[name] = argv

    def run(self, name: str) -> tuple[dict, int]:
        """Run the fixture; check its hash; return the report and its size."""
        out = os.path.join(self.workdir, f"{name}-report.json")
        cli_ok(self.runs[name] + ["--out", out])
        with open(out, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        expect(doc["fixture_hash"] == self.pinned[name],
               f"{name}: fixture hash {doc['fixture_hash'][:12]} != pinned")
        return doc, len(raw)
