"""Write golden.json: the sha256 of each grid workload's artifacts.

    python3 bench/record_golden.py

The grid workloads gate every operation against these digests, so record
them only at a commit whose artifacts are the reference.
"""

import json
import shutil

import run
import workloads


def main() -> None:
    cli = run.load_cli()
    golden = {}
    for name in workloads.NAMES:
        wl = workloads.build(name)
        if not isinstance(wl, workloads.GridWorkload):
            continue
        out_dir = run.OUT / f"golden-{name}"
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            rc = cli.main([*wl.argv, "--out", str(out_dir)])
            if rc != 0:
                raise SystemExit(f"{name} exited {rc}; golden.json left unchanged")
            golden[name] = {p.name: workloads.digest([p]) for p in wl.outputs(out_dir)}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
