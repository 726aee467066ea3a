import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "digests.py"


def _digests(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_two_runs_digest_alike_and_only_like_environments_compare(tmp_path):
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in files:
        done = _digests("--workloads", "linear-sweep", "--seeds", "0",
                        "--out", str(path))
        assert done.returncode == 0, done.stderr
    a, b = (json.loads(path.read_text()) for path in files)
    outputs = a["digests"]["linear-sweep"]["0"]
    assert set(outputs) == {"payload", "records", "summary", "csv", "jsonl",
                            "train_reports", "filters", "cell_log"}
    assert a == b
    done = _digests("--compare", *map(str, files))
    assert done.returncode == 0 and "identical" in done.stdout

    b["digests"]["linear-sweep"]["0"]["payload"] = "0"
    files[1].write_text(json.dumps(b))
    done = _digests("--compare", *map(str, files))
    assert done.returncode == 1
    assert done.stdout.splitlines() == ["differs: linear-sweep seed 0: payload"]

    b["environment"]["numpy"] = "0.0"
    files[1].write_text(json.dumps(b))
    done = _digests("--compare", *map(str, files))
    assert done.returncode == 2
    assert "numpy" in done.stdout and "payload" not in done.stdout
