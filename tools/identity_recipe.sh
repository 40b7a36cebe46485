#!/usr/bin/env bash
# Byte-identity recipe: trains, evaluates and infers with the cacseg in
# <checkout>/src, runs the gradient checks, and writes <out>/SHA256SUMS over
# every file it produced. Run it once on each of two checkouts, each into
# its own empty <out>; the two SHA256SUMS then compare with one `diff`.
#
# Each resolved.cfg records the output directory it was written to, so it
# is hashed with <out> replaced by the literal string "<out>".
#
#   tools/identity_recipe.sh <checkout> <out>
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <checkout> <out>" >&2
    exit 2
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2"
O=$(cd "$2" && pwd)
if [ -n "$(ls -A "$O")" ]; then
    echo "$O is not empty" >&2
    exit 2
fi

cd "$checkout"
export PYTHONPATH="$checkout/src"
C() { python3 -m cacseg.cli "$@" > /dev/null; }

C synth --config configs/overfit.cfg --out "$O/ph-overfit"
C train --config configs/overfit.cfg --set train.epochs=6 \
    --set data.train_dir="$O/ph-overfit" --out "$O/overfit"
C synth --config configs/desk64-phantom.cfg --set data.phantom.slices=48 --out "$O/ph-desk"
C train --config configs/desk64-train.cfg --set train.epochs=2 \
    --set data.train_dir="$O/ph-desk" --set data.val_dir="$O/ph-desk" --out "$O/desk"
# the other three loss variants, FocalLogDice without attention, and a run
# with dataclass-backed keys away from their defaults
for run in CE Focal FocalDice noca nondefault; do
    case $run in
        noca) sets=(--set arch.ca_enabled=false) ;;
        nondefault) sets=(--set arch.ca_activation=hardswish
                          --set train.restart_period_multiplier=2
                          --set loss.class_weights=0.2,0.6,1.4,1.2,1.3,1.3
                          --set data.augment=true --set data.aug_prob=1.0
                          --set data.crop_sizes=48,56) ;;
        *) sets=(--set loss.variant=$run) ;;
    esac
    C train --config configs/overfit.cfg --set train.epochs=2 "${sets[@]}" \
        --set data.train_dir="$O/ph-overfit" --out "$O/overfit-$run"
    C eval --config configs/overfit.cfg "${sets[@]}" \
        --set eval.checkpoint="$O/overfit-$run/last.rckp" \
        --set data.test_dir="$O/ph-overfit" --out "$O/eval-overfit-$run"
done

for run in overfit desk; do
    if [ "$run" = overfit ]; then cfg=configs/overfit.cfg; else cfg=configs/desk64-train.cfg; fi
    phantom="$O/ph-$run"
    for ps in false true; do
        C eval --config "$cfg" --set eval.checkpoint="$O/$run/last.rckp" \
            --set data.test_dir="$phantom" --set eval.per_slice=$ps --out "$O/eval-$run-$ps"
    done
    C infer --config "$cfg" --set infer.checkpoint="$O/$run/last.rckp" \
        --set infer.input_dir="$phantom" --set infer.limit=5 --out "$O/infer-$run"
done
# a short last batch: 5 slices forwarded as 3 + 2
C infer --config configs/desk64-train.cfg --set infer.checkpoint="$O/desk/last.rckp" \
    --set infer.input_dir="$O/ph-desk" --set infer.limit=5 --set train.batch_size=3 \
    --out "$O/infer-desk-b3"
C gradcheck --out "$O/gc"

cd "$O"
find . -type f ! -name SHA256SUMS | LC_ALL=C sort | while read -r f; do
    if [ "$(basename "$f")" = resolved.cfg ]; then
        printf '%s  %s\n' "$(sed "s|$O|<out>|g" "$f" | sha256sum | cut -d' ' -f1)" "$f"
    else
        sha256sum "$f"
    fi
done > SHA256SUMS
echo "$(wc -l < SHA256SUMS) files hashed into $O/SHA256SUMS"
