#!/bin/sh
# Bit-identity acceptance matrix for the snapshot/restore subsystem:
# every design. Each cell runs straight with a mid-run checkpoint,
# restores that checkpoint in a fresh process, and requires
#   - stats JSONL:    byte-identical,
#   - span JSONL:     the restored spans are a byte-suffix of the
#                     straight run's (each minus its own meta line),
#   - command trace:  the restored command stream is a byte-suffix of
#                     the straight run's
# (a restored process only emits output from the restore point on, so
# suffix equality IS bit-identity over the re-simulated interval).
#
# Usage: checkpoint_matrix.sh <path-to-dasdram_run> [design...]
set -eu

RUN=$1
shift
DESIGNS=${*:-standard sas charm das das-fm fs}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# suffix_of FULL PART: PART equals the last $(wc -c PART) bytes of FULL.
suffix_of() {
    part_size=$(wc -c < "$2")
    tail -c "$part_size" "$1" | cmp -s - "$2"
}

fail=0
for design in $DESIGNS; do
    ckpt="$WORK/$design.ckpt"
    for mode in cold warm; do
        if [ "$mode" = cold ]; then
            snap="--checkpoint-out 150000:$ckpt"
        else
            snap="--restore $ckpt"
        fi
        # shellcheck disable=SC2086  # $snap is two words
        "$RUN" --workload mcf --design "$design" \
            --instructions 60000 \
            --trace-requests 1 \
            $snap \
            --stats-out "$WORK/$design.$mode.stats.jsonl" \
            --spans-out "$WORK/$design.$mode.spans.jsonl" \
            --trace-cmds "$WORK/$design.$mode.cmds.txt" \
            > /dev/null
    done
    ok=1
    cmp -s "$WORK/$design.cold.stats.jsonl" \
        "$WORK/$design.warm.stats.jsonl" || ok=0
    tail -n +2 "$WORK/$design.cold.spans.jsonl" > "$WORK/cold.body"
    tail -n +2 "$WORK/$design.warm.spans.jsonl" > "$WORK/warm.body"
    suffix_of "$WORK/cold.body" "$WORK/warm.body" || ok=0
    suffix_of "$WORK/$design.cold.cmds.txt" \
        "$WORK/$design.warm.cmds.txt" || ok=0
    if [ "$ok" = 1 ]; then
        echo "ok   $design"
    else
        echo "FAIL $design"
        fail=1
    fi
done
exit $fail
