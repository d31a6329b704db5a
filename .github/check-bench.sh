# Sourced by the benchmark steps of workflows/tests.yml.
#
# check_bench FILE DIGEST [BOUND] checks the output FILE of one
# perfbench/run.py run: its last line must report the run correct with no
# failed operation, its first rep must write the bytes whose sha256 is
# DIGEST, and, given BOUND, the traced engine.replies_bound must equal it.
check_bench() {
  if ! tail -n 1 "$1" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if not (r["correct"] is True and r["failed"] == 0):
    sys.exit("not correct, or an operation failed")
if sys.argv[1]:
    bound = r["metrics"]["engine.replies_bound"]["value"]
    if bound != int(sys.argv[1]):
        sys.exit(f"engine.replies_bound is {bound}, not {sys.argv[1]}")' "${3:-}"; then
    echo "$1: run check failed"
    return 1
  fi
  if ! grep -m 1 '^# rep ' "$1" | grep -q "sha256=$2\$"; then
    echo "$1: first rep digest is not $2"
    return 1
  fi
}
