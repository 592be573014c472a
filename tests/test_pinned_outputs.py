"""Every output byte of one run of all five commands, pinned by sha256.

pinned_outputs.json maps each command to the files it wrote or changed, in
the order the commands run. Like the other pins, it holds this host's numpy
and OpenBLAS bits. A change that moves output bytes on purpose rewrites it,
with PYTHONPATH=src:tests python tests/test_pinned_outputs.py, and names the
changed files in CHANGES.md.
"""
import json
from pathlib import Path

from torusvae import cli
from helpers import ALL_COMMANDS, ALL_COMMANDS_CONFIG, hash_tree

TABLE = Path(__file__).with_name("pinned_outputs.json")


def output_hashes(work) -> dict:
    """{command: {path: sha256}} of the files each command wrote or changed,
    run in order on ALL_COMMANDS_CONFIG with its outputs under work/out."""
    config = work / "config.json"
    config.write_text(json.dumps(ALL_COMMANDS_CONFIG))
    out, table, before = work / "out", {}, {}
    for command in ALL_COMMANDS:
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0, command
        after = hash_tree(out)
        table[command] = {name: digest for name, digest in after.items()
                          if before.get(name) != digest}
        before = after
    return table


def test_every_output_matches_its_pinned_sha256(tmp_path):
    pinned = json.loads(TABLE.read_text())
    actual = output_hashes(tmp_path)
    for command, files in pinned.items():
        for name, digest in files.items():
            assert actual[command].get(name) == digest, f"{name}, written by {command}, changed"
    assert actual == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        TABLE.write_text(json.dumps(output_hashes(Path(work)), indent=1) + "\n")
    print(f"wrote {TABLE}")
