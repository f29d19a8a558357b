"""The localized pipeline's, the inequality suites', the Crofton estimators',
the growth tables', the spectra's, the nodal sets' and one ``all`` run's
outputs match the digests in fingerprints.json.

See tests/fingerprints.py for what is hashed and how to rewrite the file.
The digests are computed in a subprocess, because they hold for one BLAS
thread and this process may have loaded numpy with more.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SCRIPT = HERE / "fingerprints.py"
STORED = json.loads((HERE / "fingerprints.json").read_text(encoding="ascii"))

UPDATE_HINT = (
    "rewrite them with `PYTHONPATH=src python tests/fingerprints.py --update` "
    "run at a commit whose outputs are known to be right (for example the "
    "parent of the change under test), then check in tests/fingerprints.json "
    "and name the changed digests and the reason in CHANGES.md")


@pytest.fixture(scope="module")
def computed():
    src = str(HERE.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(SCRIPT)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if got["versions"] != STORED["versions"]:
        pytest.fail(f"fingerprints were recorded with {STORED['versions']} "
                    f"but this environment has {got['versions']}; "
                    f"floating-point results can differ between builds, so "
                    f"{UPDATE_HINT}")
    return got


@pytest.mark.parametrize("name", sorted(STORED["cli"]))
def test_localized_commands_outputs(computed, name):
    got, want = computed["cli"][name], STORED["cli"][name]
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, (f"{name}: {changed} differ from the recorded "
                         f"outputs; if the change is intended, {UPDATE_HINT}")


@pytest.mark.parametrize("name", sorted(STORED["inequality"]))
def test_inequality_outputs(computed, name):
    got, want = computed["inequality"][name], STORED["inequality"][name]
    assert got == want, (f"{name} differs from the recorded output; if the "
                         f"change is intended, {UPDATE_HINT}")


@pytest.mark.parametrize("name", sorted(STORED["crofton"]))
def test_crofton_outputs(computed, name):
    got, want = computed["crofton"][name], STORED["crofton"][name]
    assert got == want, (f"crofton {name} differs from the recorded outputs; "
                         f"if the change is intended, {UPDATE_HINT}")


@pytest.mark.parametrize("name", sorted(STORED["growth"]))
def test_growth_outputs(computed, name):
    got, want = computed["growth"][name], STORED["growth"][name]
    assert got == want, (f"growth / thm1 / spectrum / nodal {name} differ from the recorded "
                         f"outputs; if the change is intended, {UPDATE_HINT}")


@pytest.mark.parametrize("family", sorted(STORED["rapid_family"]))
def test_rapid_family_decisions(computed, family):
    got, want = computed["rapid_family"][family], STORED["rapid_family"][family]
    assert got == want, (f"rapid family {family}: decisions or levels differ "
                         f"from the recorded ones; if the change is "
                         f"intended, {UPDATE_HINT}")


def test_all_command_outputs(computed):
    # one `ngl all` run, the spectrum cache included: the stages its commands
    # share leave every file as the commands write it one by one
    got, want = computed["all"], STORED["all"]
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, (f"all: {changed} differ from the recorded outputs; "
                         f"if the change is intended, {UPDATE_HINT}")


def test_update_names_each_changed_digest():
    # `fingerprints.py --update` prints one line per leaf key it adds,
    # removes or changes, so CHANGES.md can name the re-recorded digests
    from fingerprints import digest_changes
    old = {"growth": {"wave": {"growth.json": "a", "thm1_table.csv": "b"},
                      "flat": {"growth.json": "c"}},
           "rapid_family": {"d=38": {"levels": [[1, 2]]}}}
    new = {"growth": {"wave": {"growth.json": "a2", "thm1_table.csv": "b"},
                      "flat": {"growth.json": "c", "nodal.svg": "d"}},
           "all": {"record.json": "e"}}
    assert digest_changes(old, new) == [
        "added all/record.json", "added growth/flat/nodal.svg",
        "changed growth/wave/growth.json", "removed rapid_family/d=38/levels"]
    assert digest_changes(new, new) == []
