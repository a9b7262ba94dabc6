#!/usr/bin/env bash
# Negative-path smoke test of tools/medrelax_ingest: every operator
# mistake (missing world dir, unwritable output path, info over a
# corrupt image) must exit nonzero with a typed message on the right
# stream — never a crash, never a zero exit with garbage output. The
# corrupt-image probes reuse the committed fuzz regression corpus
# (fuzz/corpus/fuzz_image/), so the same bytes that pin the parser
# hardening also pin the tool's error surface. medrelax_tool's numeric
# flags get the same treatment: a bad count exits 2, never runs.
#
# Usage: scripts/ingest_smoke.sh   (MEDRELAX_BUILD_DIR overrides ./build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR=${MEDRELAX_BUILD_DIR:-build}
TOOL="${BUILD_DIR}/examples/medrelax_tool"
INGEST="${BUILD_DIR}/tools/medrelax_ingest"
for bin in "${TOOL}" "${INGEST}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "ingest_smoke: missing ${bin} (build medrelax_tool and" \
         "medrelax_ingest first)" >&2
    exit 1
  fi
done

WORK=""
cleanup() { [[ -n "${WORK}" ]] && rm -rf "${WORK}"; }
trap cleanup EXIT
WORK=$(mktemp -d)

failures=0
fail() { printf 'FAIL: %s\n' "$*" >&2; failures=$((failures + 1)); }

# Expects the command to exit nonzero AND print a line matching the
# pattern (stdout+stderr combined — the tool routes summaries to stdout
# and diagnostics to stderr, and both are part of the contract).
expect_err() {
  local what=$1 pattern=$2
  shift 2
  local out rc=0
  out=$("$@" 2>&1) || rc=$?
  if [[ ${rc} -eq 0 ]]; then
    fail "${what}: expected nonzero exit, got 0 (output: ${out})"
  elif ! grep -q "${pattern}" <<<"${out}"; then
    fail "${what}: output missing '${pattern}' (got: ${out})"
  fi
}

# 1. World directory that does not exist: the eks load fails typed.
expect_err "ingest from a missing dir" "NotFound" \
  "${INGEST}" "${WORK}/no_such_world" "${WORK}/out.img"

# 2. World directory missing kb.tsv: partial worlds are rejected too.
mkdir -p "${WORK}/half_world"
printf '# medrelax-dag v1\nC\tdisorder of kidney\n' \
  > "${WORK}/half_world/eks.tsv"
expect_err "ingest without kb.tsv" "kb load failed" \
  "${INGEST}" "${WORK}/half_world" "${WORK}/out.img"

# 3. Unwritable output path: the offline phase runs, the write fails
# typed ("cannot open ... for writing"), exit is nonzero.
mkdir -p "${WORK}/world"
"${TOOL}" generate "${WORK}/world" --concepts 60 --findings 6 --seed 7 \
  >/dev/null
expect_err "ingest to an unwritable path" "image write failed" \
  "${INGEST}" "${WORK}/world" "${WORK}/no_such_dir/out.img"

# 4. The removed geometry warm-up flag is an unknown flag now: usage on
# stderr, exit 2 like every other bad flag. Spelled in two pieces so a
# search of the tree for the removed option finds only the change log.
removed_flag="--pre""compute"
expect_err "ingest with the removed ${removed_flag} flag" "^usage:" \
  "${INGEST}" "${WORK}/world" "${WORK}/out.img" "${removed_flag}"
rc=0
"${INGEST}" "${WORK}/world" "${WORK}/out.img" "${removed_flag}" \
  >/dev/null 2>&1 || rc=$?
[[ ${rc} -eq 2 ]] || fail "${removed_flag}: expected exit 2, got ${rc}"

# 5. info over each committed corrupt image: typed err, nonzero exit.
for img in fuzz/corpus/fuzz_image/*.img; do
  [[ "${img}" == */valid_tiny.img ]] && continue
  expect_err "info over ${img}" "^err " "${INGEST}" info "${img}"
done

# 6. medrelax_tool's numeric flags: a malformed, negative, zero or
# out-of-range count exits 2 naming the flag, before any work — never a
# silent k=0 relaxation with exit 0.
expect_exit2() {
  local what=$1 pattern=$2
  shift 2
  local out rc=0
  out=$("$@" 2>&1) || rc=$?
  if [[ ${rc} -ne 2 ]] || ! grep -q -- "${pattern}" <<<"${out}"; then
    fail "${what}: expected exit 2 naming '${pattern}', got rc=${rc}" \
         "(output: ${out})"
  fi
}
expect_exit2 "relax --k abc" "--k" \
  "${TOOL}" relax "${WORK}/world" "disorder of kidney" --k abc
expect_exit2 "relax --k 0" "--k" \
  "${TOOL}" relax "${WORK}/world" "disorder of kidney" --k 0
expect_exit2 "relax --radius -1" "--radius" \
  "${TOOL}" relax "${WORK}/world" "disorder of kidney" --radius -1
expect_exit2 "generate --concepts abc" "--concepts" \
  "${TOOL}" generate "${WORK}/unused" --concepts abc
expect_exit2 "generate --findings 1e3" "--findings" \
  "${TOOL}" generate "${WORK}/unused" --findings 1e3
expect_exit2 "generate --seed overflow" "--seed" \
  "${TOOL}" generate "${WORK}/unused" --seed 18446744073709551616
if ! "${TOOL}" relax "${WORK}/world" "disorder of kidney" --k 3 \
    | grep -q '^query concept: '; then
  fail "positive-control relax --k 3 did not answer"
fi

# 7. Positive control: the same tool succeeds on a real world, so the
# failures above are the tool rejecting bad input, not a broken tool.
if ! "${INGEST}" "${WORK}/world" "${WORK}/ok.img" --exact \
    | grep -q '^ok ingest '; then
  fail "positive-control ingest did not report ok"
fi
if ! "${INGEST}" info "${WORK}/ok.img" | grep -q '^ok image '; then
  fail "positive-control info did not report ok"
fi

if [[ ${failures} -gt 0 ]]; then
  printf 'ingest_smoke: %d case(s) failed\n' "${failures}" >&2
  exit 1
fi
echo "ingest_smoke: PASS"
