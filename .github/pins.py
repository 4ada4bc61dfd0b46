"""Run each pathdepth command pinned in pins.txt, print its exit code, wall
time, peak RSS and SHA-256, and exit 1 when any differs from its pin or a
verify --all header gate fails; the times and sizes gate nothing.  Usage,
from the repository root: python .github/pins.py, or python -O .github/pins.py
to run every pinned command under -O too."""
import hashlib, json, os, shlex, subprocess, sys, tempfile, time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pins():
    """(output name, exit code, SHA-256, pathdepth arguments) for each line."""
    for line in (ROOT / ".github" / "pins.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, code, digest, args = line.split(" ", 3)
            yield name, int(code), digest, shlex.split(args)


def main():
    # a run under -O (or -OO) starts each pinned command under it too
    cli = [sys.executable] + ["-O"] * sys.flags.optimize + ["-m", "pathdepth.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, code, digest, args in pins():
            path, start = Path(tmp, name), time.perf_counter()
            with open(path, "wb") as out:
                child = subprocess.Popen(cli + args, stdout=out, env=env)
                # that one child's rusage; ru_maxrss is in KiB on Linux
                _, status, usage = os.wait4(child.pid, 0)
                got = child.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{name}: exit {got}, wall_s {wall:.2f}, peak_rss_mb {usage.ru_maxrss / 1024:.0f},",
                  f"SHA-256 {sha}")
            if got != code:
                bad.append(f"{name}: exit {got}, expected {code}")
            if sha != digest:
                bad.append(f"{name}: SHA-256 {sha}, expected {digest}")
            if name == "verify.json" and got == 0:
                run = json.loads(path.read_bytes())["run"]
                print("  reports %(reports)d, failed %(failed)d, skipped %(skipped)d," % run,
                      "partly_skipped %(partly_skipped)d" % run)
                # no report falls back into a budget skip, and only one skips a
                # sub-check on a budget (theorem-2.2 at n = 6)
                for key, most in (("failed", 0), ("skipped", 0), ("partly_skipped", 1)):
                    if run[key] > most:
                        bad.append(f"{name}: {run[key]} {key} reports, at most {most}")
    for line in bad:
        print("mismatch:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
