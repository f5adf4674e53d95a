"""
The command-line pipeline end to end
====================================

simulate -> align -> metrics -> retrieve, all through the installed
`popalign` entry point, working in a throwaway directory that is removed
at the end. Every artifact is a JSON or JSON-lines file you can inspect by
hand while the demo runs.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*args):
    cmd = [sys.executable, "-m", "popalign.cli", *args]
    print("$ popalign", " ".join(args))
    res = subprocess.run(cmd, cwd=work, capture_output=True, text=True)
    if res.returncode != 0:
        print(res.stderr)
        raise SystemExit(res.returncode)
    return res.stdout


with tempfile.TemporaryDirectory(prefix="popalign-demo-") as tmp:
    work = Path(tmp)
    print("working in", work)

    # synthetic pool + reference + persona files
    run("simulate", "--n", "3000", "--m", "1200", "--d", "3", "--seed", "4")

    # the alignment itself; config flags mirror AlignmentConfig fields
    run(
        "align",
        "--pool", "pool.jsonl", "--reference", "reference.jsonl",
        "--personas", "personas.jsonl",
        "--n-is-candidates", "900", "--n-final", "400", "--seed", "0",
    )

    report = json.loads((work / "report.json").read_text())
    print("report version", report["report_version"], "| pool sizes", report["pool_sizes"])
    print("aligned-vs-random ratios:")
    for key in ("amw", "fd", "sw", "mmd"):
        ratio = report["metrics_aligned"][key] / report["metrics_random_select"][key]
        print(f"  {key:4s} {ratio:.2f}")

    # how many distinct personas made the cut
    selected = [json.loads(line) for line in (work / "selected.jsonl").read_text().splitlines()]
    print("selected rows:", len(selected), "example:", selected[0])

    # stand-alone divergence table between any two response files
    out = run("metrics", "pool.jsonl", "reference.jsonl", "--projections", "128")
    print("pool vs reference:", json.loads(out))

    # cosine retrieval over an embedding file
    emb = work / "embeddings.jsonl"
    with emb.open("w") as fh:
        for i, vec in enumerate([[1.0, 0.0], [0.8, 0.6], [-1.0, 0.0], [0.0, 1.0]]):
            fh.write(json.dumps({"id": f"e{i}", "embedding": vec}) + "\n")
    out = run("retrieve", "--embeddings", "embeddings.jsonl",
              "--query", "[1.0, 0.1]", "--k", "2")
    for line in out.splitlines():  # one JSON record per hit
        print("retrieve:", json.loads(line))
