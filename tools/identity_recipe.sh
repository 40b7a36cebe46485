#!/usr/bin/env bash
# Byte-identity recipe: trains, resumes, evaluates, infers and scores with the
# cacseg in <checkout>/src, runs the gradient checks, and writes <out>/SHA256SUMS
# over every file it produced. It fails if any `*.tmp` file is left in <out>.
# Run it once on each of two checkouts, each into its own empty <out>; the two
# SHA256SUMS then compare with one `diff`.
#
# Trained bytes of the 128x128 leg depend on the BLAS thread count, so the
# recipe pins it: OPENBLAS_NUM_THREADS as set by the caller, else 1. Run both
# checkouts at the same count.
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
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
C() { python3 -m cacseg.cli "$@" > /dev/null; }

C synth --config configs/overfit.cfg --out "$O/ph-overfit"
C train --config configs/overfit.cfg --set train.epochs=6 \
    --set data.train_dir="$O/ph-overfit" --out "$O/overfit"
# resume: two more epochs from the run's last checkpoint
C train --config configs/overfit.cfg --set train.epochs=8 \
    --set train.resume="$O/overfit/last.rckp" \
    --set data.train_dir="$O/ph-overfit" --out "$O/overfit-resume"
C synth --config configs/desk64-phantom.cfg --set data.phantom.slices=48 --out "$O/ph-desk"
C train --config configs/desk64-train.cfg --set train.epochs=2 \
    --set data.train_dir="$O/ph-desk" --set data.val_dir="$O/ph-desk" --out "$O/desk"
# a deep128-shaped leg: 128x128 slices with lesion areas scaled by 4, an
# L4 net of base 16 (convs up to 256 channels) at batch 4, then a resume
deep=(--set arch.levels=4 --set arch.base_channels=16 --set train.batch_size=4
      --set data.augment=false)
C synth --config configs/desk64-phantom.cfg --set data.phantom.slices=8 \
    --set data.phantom.size=128 --set data.phantom.px_lm=20,56 \
    --set data.phantom.px_lad=40,160 --set data.phantom.px_lcx=40,160 \
    --set data.phantom.px_rca=48,180 --out "$O/ph-deep"
C train --config configs/desk64-train.cfg "${deep[@]}" --set train.epochs=2 \
    --set data.train_dir="$O/ph-deep" --set data.val_dir="$O/ph-deep" --out "$O/deep"
C train --config configs/desk64-train.cfg "${deep[@]}" --set train.epochs=3 \
    --set train.resume="$O/deep/last.rckp" \
    --set data.train_dir="$O/ph-deep" --set data.val_dir="$O/ph-deep" --out "$O/deep-resume"
# the other three loss variants, FocalLogDice without attention, FocalLogDice
# with combo weights that do not sum to 1, and a run with dataclass-backed
# keys away from their defaults (the rotation angles and blur radii among them)
for run in CE Focal FocalDice noca weights nondefault; do
    case $run in
        noca) sets=(--set arch.ca_enabled=false) ;;
        weights) sets=(--set loss.w_focal=0.1 --set loss.w_dice=4.3) ;;
        nondefault) sets=(--set arch.ca_activation=hardswish
                          --set train.restart_period_multiplier=2
                          --set loss.class_weights=0.2,0.6,1.4,1.2,1.3,1.3
                          --set data.augment=true --set data.aug_prob=1.0
                          --set data.crop_sizes=48,56
                          --set data.rot_degrees=7.5,12.5
                          --set data.blur_sigma=0.3,2.5) ;;
        *) sets=(--set loss.variant=$run) ;;
    esac
    C train --config configs/overfit.cfg --set train.epochs=2 "${sets[@]}" \
        --set data.train_dir="$O/ph-overfit" --out "$O/overfit-$run"
    C eval --config configs/overfit.cfg "${sets[@]}" \
        --set eval.checkpoint="$O/overfit-$run/last.rckp" \
        --set data.test_dir="$O/ph-overfit" --out "$O/eval-overfit-$run"
done

for run in overfit desk deep; do
    sets=()
    case $run in
        overfit) cfg=configs/overfit.cfg ;;
        desk) cfg=configs/desk64-train.cfg ;;
        deep) cfg=configs/desk64-train.cfg; sets=("${deep[@]}") ;;
    esac
    phantom="$O/ph-$run"
    for ps in false true; do
        C eval --config "$cfg" "${sets[@]}" --set eval.checkpoint="$O/$run/last.rckp" \
            --set data.test_dir="$phantom" --set eval.per_slice=$ps --out "$O/eval-$run-$ps"
    done
    C infer --config "$cfg" "${sets[@]}" --set infer.checkpoint="$O/$run/last.rckp" \
        --set infer.input_dir="$phantom" --set infer.limit=5 --out "$O/infer-$run"
done
# a short last batch: 5 slices forwarded as 3 + 2
C infer --config configs/desk64-train.cfg --set infer.checkpoint="$O/desk/last.rckp" \
    --set infer.input_dir="$O/ph-desk" --set infer.limit=5 --set train.batch_size=3 \
    --out "$O/infer-desk-b3"
C gradcheck --out "$O/gc"
# per-vessel calcium score of a slice that holds all four vessels
C score --set score.image="$O/ph-overfit/images/slice_00000.tns" \
    --set score.mask="$O/ph-overfit/masks/slice_00000.tns" \
    --set score.pixel_area_mm2=0.5 --out "$O/score"

cd "$O"
leftover=$(find . -name '*.tmp')
if [ -n "$leftover" ]; then
    echo "temporary files left behind:" $leftover >&2
    exit 1
fi
find . -type f ! -name SHA256SUMS | LC_ALL=C sort | while read -r f; do
    if [ "$(basename "$f")" = resolved.cfg ]; then
        printf '%s  %s\n' "$(sed "s|$O|<out>|g" "$f" | sha256sum | cut -d' ' -f1)" "$f"
    else
        sha256sum "$f"
    fi
done > SHA256SUMS
echo "$(wc -l < SHA256SUMS) files hashed into $O/SHA256SUMS"
