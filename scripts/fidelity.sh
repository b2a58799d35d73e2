#!/usr/bin/env bash
# Paper-fidelity gate: re-run the Table VI and Table IX experiments and diff
# them against the goldens in testdata/fidelity/. The timing lines (each
# experiment's "ran in" header and LITE's recommendation overhead) are
# stripped; every other line — each tuner's seconds, the ETR table, the
# Adaptive Model Update ranking metrics and p-values — must match byte for
# byte. A change that moves training arithmetic on purpose re-records the
# goldens in the same commit, through the same filter, and lists the cells
# that moved:
#
#   ./scripts/fidelity.sh -record
#
# The goldens are amd64 numbers: the Go compiler fuses multiply-add on
# arm64, ppc64le and s390x, so other architectures skip, as
# internal/core/bits_test.go does. About 30 s on a 2-core box.
set -euo pipefail

cd "$(dirname "$0")/.."

record=0
case "${1:-}" in
    "") ;;
    -record) record=1 ;;
    *) echo "usage: $0 [-record]" >&2; exit 2 ;;
esac

arch="$(go env GOARCH)"
if [[ "$arch" != "amd64" ]]; then
    echo "fidelity: skipped on $arch (the goldens are recorded on amd64)" >&2
    exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/litebench" ./cmd/litebench

status=0
for exp in table6 table9; do
    golden="testdata/fidelity/$exp.txt"
    "$tmp/litebench" -exp "$exp" | grep -v -e '(ran in ' -e 'recommendation overhead:' > "$tmp/$exp.txt"
    if [[ "$record" == 1 ]]; then
        cp "$tmp/$exp.txt" "$golden"
        echo "fidelity: recorded $golden" >&2
    elif diff -u "$golden" "$tmp/$exp.txt"; then
        echo "fidelity: $exp matches $golden" >&2
    else
        echo "fidelity: $exp differs from $golden" >&2
        status=1
    fi
done
exit "$status"
