#!/usr/bin/env python3
"""Copy a JSONL run report with every timing of its iteration and summary
records (each `*_seconds` field and the `mttkrp_mode_seconds` array)
multiplied by a factor, as a uniformly slower run would read, then exec an
optional command (typically `mdcp_cli drift`) and exit with its status. Used
by the history-smoke tests and CI to fabricate a regression the drift gate
must catch:

    inject_slowdown.py <src.jsonl> <dst.jsonl> <factor> [-- cmd args...]
"""
import json
import subprocess
import sys


def main(argv):
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 64
    src, dst, factor = argv[1], argv[2], float(argv[3])
    cmd = argv[5:] if len(argv) > 4 and argv[4] == "--" else []

    out = []
    with open(src) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") in ("iteration", "summary"):
                for key, value in rec.items():
                    if key.endswith("_seconds") and isinstance(
                            value, (int, float)):
                        rec[key] = value * factor
                if "mttkrp_mode_seconds" in rec:
                    rec["mttkrp_mode_seconds"] = [
                        s * factor for s in rec["mttkrp_mode_seconds"]
                    ]
            out.append(json.dumps(rec))
    with open(dst, "w") as f:
        f.write("\n".join(out) + "\n")

    if not cmd:
        return 0
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
