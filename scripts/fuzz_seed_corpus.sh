#!/usr/bin/env bash
# Builds a seed corpus for the libFuzzer harnesses (fuzz/) into a
# working directory, one subdirectory per harness. Seeds come from the
# real producers — medrelax_tool generate + medrelax_ingest for a valid
# image, the golden scripted session for protocol lines, a generated
# world's eks.tsv/kb.tsv for the text loaders — plus everything already
# committed in fuzz/corpus/ (the regression entries double as seeds;
# fuzz_session has only those).
#
# Usage: scripts/fuzz_seed_corpus.sh <out-dir>
#        (MEDRELAX_BUILD_DIR overrides ./build for the tool binaries)
#
# Then fuzz with, e.g.:
#   ./build-fuzz/fuzz/fuzz_image -max_total_time=60 <out-dir>/fuzz_image
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -ne 1 ]]; then
  echo "usage: scripts/fuzz_seed_corpus.sh <out-dir>" >&2
  exit 2
fi
OUT=$1
BUILD_DIR=${MEDRELAX_BUILD_DIR:-build}
TOOL="${BUILD_DIR}/examples/medrelax_tool"
INGEST="${BUILD_DIR}/tools/medrelax_ingest"
for bin in "${TOOL}" "${INGEST}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "fuzz_seed_corpus: missing ${bin} (build medrelax_tool and" \
         "medrelax_ingest first)" >&2
    exit 1
  fi
done

mkdir -p "${OUT}/fuzz_image" "${OUT}/fuzz_protocol" "${OUT}/fuzz_textio" \
  "${OUT}/fuzz_session"

# Committed regression corpus: every pinned input is also a seed.
for harness in fuzz_image fuzz_protocol fuzz_textio fuzz_session; do
  cp fuzz/corpus/${harness}/* "${OUT}/${harness}/" 2>/dev/null || true
done

WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

# A fresh small world: image seed for fuzz_image, text seeds for
# fuzz_textio (different seed than the committed one for diversity).
mkdir -p "${WORK}/world"
"${TOOL}" generate "${WORK}/world" --concepts 80 --findings 8 --seed 11 \
  >/dev/null
"${INGEST}" "${WORK}/world" "${OUT}/fuzz_image/seed_world11.img" --exact \
  >/dev/null
# And the same world with the edit-distance mapper, whose image also
# carries the trigram postings and length buckets.
"${INGEST}" "${WORK}/world" "${OUT}/fuzz_image/seed_world11_edit.img" \
  >/dev/null
cp "${WORK}/world/eks.tsv" "${OUT}/fuzz_textio/seed_eks11.tsv"
cp "${WORK}/world/kb.tsv" "${OUT}/fuzz_textio/seed_kb11.tsv"

# The golden scripted session is a ready-made protocol seed: every verb,
# every option form, every error path the server documents.
grep -v '^#' tests/golden/server_session.txt | grep -v '^$' \
  > "${OUT}/fuzz_protocol/seed_golden_session.txt"

echo "fuzz_seed_corpus: seeded $(find "${OUT}" -type f | wc -l) inputs" \
     "under ${OUT}"
