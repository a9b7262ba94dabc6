#!/usr/bin/env bash
# End-to-end smoke test of the serving stack. The seeded smoke world is
# generated and frozen into a snapshot image once (medrelax_ingest
# --exact); every stage boots `medrelax_server serve --image` from it.
#
#   1. The scripted session (tests/golden/server_session.txt) is replayed
#      on stdin AND through `medrelax_client session` against a --listen
#      server on loopback; both must match the same golden transcript
#      byte for byte. A short closed-loop load burst follows over TCP
#      (only the deterministic first line is checked — throughput is
#      machine-dependent and goes to stderr anyway).
#   2. The same session against a --workers 3 server (three event loops;
#      the session lands on the second) must match a --workers 3 stdin
#      replay byte for byte; a load burst then spreads connections over
#      all three loops.
#   3. RELOAD runs off the event loops: with the reload padded to 2s, a
#      concurrent session must keep answering in well under 1s.
#   4. `RELOAD <path>` onto another image, with a load burst running,
#      must round-trip in well under 1s: mapping skips the offline phase.
#   5. Cache stress: a scan-pollution burst at a small result cache must
#      meet the second-hit doorkeeper (admission_rejects > 0), and a Zipf
#      re-burst over the hot set must still hit at >= 90%.
#   6. Rebuild workflow: medrelax_ingest writes a different world onto
#      the path a live server booted from. Until the plain RELOAD, the
#      server must keep answering from its old bytes; after it, gen=2
#      must answer exactly as a fresh server on the new image does.
#   7. Bad flags on the server and the client (malformed numbers, unknown
#      flags such as the removed --queue and --batch, stray positionals,
#      removed subcommands) must exit 2 with a message instead of hanging,
#      truncating or being ignored.
#
# Usage: scripts/server_smoke.sh   (MEDRELAX_BUILD_DIR overrides ./build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR=${MEDRELAX_BUILD_DIR:-build}
TOOL="${BUILD_DIR}/examples/medrelax_tool"
SERVER="${BUILD_DIR}/tools/medrelax_server"
CLIENT="${BUILD_DIR}/tools/medrelax_client"
INGEST="${BUILD_DIR}/tools/medrelax_ingest"
for bin in "${TOOL}" "${SERVER}" "${CLIENT}" "${INGEST}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "server_smoke: missing ${bin} (build the medrelax_tool," \
         "medrelax_server, medrelax_client and medrelax_ingest targets" \
         "first)" >&2
    exit 1
  fi
done

# Install the cleanup trap BEFORE mktemp: a failure between the two
# would otherwise leak the workdir (and, later, the background server).
WORK=""
SERVER_PID=""
cleanup() {
  if [[ -n "${SERVER_PID}" ]]; then
    kill "${SERVER_PID}" 2>/dev/null || true
  fi
  if [[ -n "${WORK}" ]]; then
    rm -rf "${WORK}"
  fi
}
trap cleanup EXIT

WORK=$(mktemp -d)
WORLD="${WORK}/world"
mkdir -p "${WORLD}"

# The world every transcript line depends on: keep these parameters in
# lockstep with tests/golden/server_session.golden. --exact: deterministic
# term resolution (no fuzzy rescue of the deliberate NotFound probe in
# the session script).
"${TOOL}" generate "${WORLD}" --concepts 800 --findings 60 --seed 7 \
  >/dev/null
IMG="${WORK}/world.img"
"${INGEST}" "${WORLD}" "${IMG}" --exact > "${WORK}/ingest.out" 2>/dev/null
grep -q '^ok ingest ' "${WORK}/ingest.out"

# Starts `medrelax_server serve <args> --listen 0` in the background
# (environment assignments before the call reach the server) and waits
# for its port announcement. Sets SERVER_PID and PORT; the server's
# output goes to ${WORK}/<label>.stdout and .stderr.
start_server() {
  local label=$1
  shift
  "${SERVER}" serve "$@" --listen 0 \
    > "${WORK}/${label}.stdout" 2> "${WORK}/${label}.stderr" &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^ok listening port=\([0-9][0-9]*\)$/\1/p' \
           "${WORK}/${label}.stdout")
    [[ -n "${PORT}" ]] && return 0
    if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
      echo "server_smoke: ${label} server exited before listening" >&2
      cat "${WORK}/${label}.stderr" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "server_smoke: ${label} server never announced its port" >&2
  exit 1
}

stop_server() {
  kill "${SERVER_PID}"
  wait "${SERVER_PID}" 2>/dev/null || true
  SERVER_PID=""
}

# --- Transport 1: stdin/stdout ---------------------------------------
"${SERVER}" serve --image "${IMG}" --workers 1 \
  < tests/golden/server_session.txt > "${WORK}/session.out"
if ! diff -u tests/golden/server_session.golden "${WORK}/session.out"; then
  echo "server_smoke: stdin transcript drifted from the golden file" >&2
  echo "(regenerate with: ${SERVER} serve --image <world.img> --workers 1" \
       "< tests/golden/server_session.txt)" >&2
  exit 1
fi

# --- Transport 2: TCP on loopback ------------------------------------
# Same session file, same golden: the epoll frontend must not be
# distinguishable from the stdin loop in what it says back.
start_server tcp --image "${IMG}" --workers 1

"${CLIENT}" session "${PORT}" < tests/golden/server_session.txt \
  > "${WORK}/tcp_session.out"
if ! diff -u tests/golden/server_session.golden "${WORK}/tcp_session.out"; then
  echo "server_smoke: TCP transcript drifted from the golden file" \
       "(stdin transport matched — the frontend broke parity)" >&2
  exit 1
fi

# Concurrent closed-loop load over the same live server; its latency
# percentiles go to stderr.
"${CLIENT}" load "${PORT}" --requests 200 --connections 4 \
  > "${WORK}/tcp_load.out" 2> "${WORK}/tcp_load.err"
grep -q '^ok load requests=200 answered=200 errors=0$' "${WORK}/tcp_load.out"
grep -q '^latency_us replies=200 p50=.* p99=.* p999=.* max=' \
  "${WORK}/tcp_load.err"

stop_server

# --- Three event loops ------------------------------------------------
# Connections are dealt round-robin over the loops: an empty session
# takes the first loop, so the scripted session is answered by the
# second — and must say byte for byte what a --workers 3 stdin session
# says. A load burst then spreads four more connections over all three.
"${SERVER}" serve --image "${IMG}" --workers 3 \
  < tests/golden/server_session.txt > "${WORK}/session3.out"
start_server tcp3 --image "${IMG}" --workers 3
"${CLIENT}" session "${PORT}" < /dev/null > /dev/null
"${CLIENT}" session "${PORT}" < tests/golden/server_session.txt \
  > "${WORK}/tcp3_session.out"
if ! diff -u "${WORK}/session3.out" "${WORK}/tcp3_session.out"; then
  echo "server_smoke: --workers 3 TCP transcript differs from stdin" >&2
  exit 1
fi
"${CLIENT}" load "${PORT}" --requests 200 --connections 4 \
  > "${WORK}/tcp3_load.out" 2>/dev/null
grep -q '^ok load requests=200 answered=200 errors=0$' "${WORK}/tcp3_load.out"
stop_server

# --- RELOAD runs off the event loops -----------------------------------
# Fresh server with the test-only reload delay armed: the reload
# executor pads its re-map by 2s. One session issues RELOAD; while that
# reload is in flight a second session must still get answers within
# 1s — if reloads ever move back onto a loop thread, the timed probe
# stalls behind the full 2s pad and the bound fails. The probe also
# asserts gen=1 (the pre-reload snapshot), proving it really ran
# *during* the swap, and the paused RELOAD session still gets its
# `ok reload gen=2` afterwards (per-connection ordering survives).
MEDRELAX_RELOAD_TEST_DELAY_MS=2000 \
  start_server delayed-reload --image "${IMG}" --workers 1

printf 'RELOAD\n' | "${CLIENT}" session "${PORT}" \
  > "${WORK}/reload.out" &
RELOAD_CLIENT_PID=$!
sleep 0.3  # let the RELOAD land and enter its padded re-map

START_NS=$(date +%s%N)
printf 'GEN\nRELAX disorder of kidney\n' | "${CLIENT}" session "${PORT}" \
  > "${WORK}/during_reload.out"
END_NS=$(date +%s%N)
ELAPSED_MS=$(( (END_NS - START_NS) / 1000000 ))

wait "${RELOAD_CLIENT_PID}"
if ! grep -q '^ok gen=1$' "${WORK}/during_reload.out"; then
  echo "server_smoke: concurrent probe did not answer from the" \
       "pre-reload snapshot (expected 'ok gen=1'):" >&2
  cat "${WORK}/during_reload.out" >&2
  exit 1
fi
if ! grep -q '^ok reload gen=2$' "${WORK}/reload.out"; then
  echo "server_smoke: paused RELOAD session never got its reply:" >&2
  cat "${WORK}/reload.out" >&2
  exit 1
fi
if (( ELAPSED_MS >= 1000 )); then
  echo "server_smoke: probe during RELOAD took ${ELAPSED_MS}ms —" \
       "the 2s reload pad leaked onto the serving path" >&2
  exit 1
fi

stop_server

# --- Image RELOAD <path> under a concurrent session -------------------
# Fresh server, NO delay hooks: hot-swapping onto another image via
# `RELOAD <path>` skips the offline phase entirely, so the whole round
# trip — map, validate, publish, reply — must land well under 1s in
# absolute wall time, while a concurrent load burst keeps the serving
# path busy. Afterwards STATS must report the bumped reload counter.
cp "${IMG}" "${WORK}/other.img"
start_server image-reload --image "${IMG}" --workers 1

"${CLIENT}" load "${PORT}" --requests 100 --connections 2 \
  > "${WORK}/img_load.out" 2>/dev/null &
IMG_LOAD_PID=$!

START_NS=$(date +%s%N)
printf 'RELOAD %s\nGEN\n' "${WORK}/other.img" \
  | "${CLIENT}" session "${PORT}" > "${WORK}/img_reload.out"
END_NS=$(date +%s%N)
ELAPSED_MS=$(( (END_NS - START_NS) / 1000000 ))

wait "${IMG_LOAD_PID}"
grep -q '^ok load requests=100 answered=100 errors=0$' "${WORK}/img_load.out"
if ! grep -q '^ok reload gen=2$' "${WORK}/img_reload.out"; then
  echo "server_smoke: RELOAD onto the image did not publish gen=2:" >&2
  cat "${WORK}/img_reload.out" >&2
  exit 1
fi
if ! grep -q '^ok gen=2$' "${WORK}/img_reload.out"; then
  echo "server_smoke: session after the image RELOAD is not on gen=2:" >&2
  cat "${WORK}/img_reload.out" >&2
  exit 1
fi
if (( ELAPSED_MS >= 1000 )); then
  echo "server_smoke: image RELOAD round trip took ${ELAPSED_MS}ms —" \
       "mapping a pre-built image must not cost offline-phase time" >&2
  exit 1
fi

printf 'STATS\nQUIT\n' | "${CLIENT}" session "${PORT}" \
  > "${WORK}/img_stats.out"
grep -q '^reloads_completed=1$' "${WORK}/img_stats.out"

stop_server

# --- Cache stress: the activity policy keeps the hot set resident -----
# A deliberately small result cache (--cache 32), a hot set of 8 keys,
# then a one-shot scan burst of 128 brand-new keys — four times the
# cache. Under strict LRU the scan would flush every hot entry; under
# the default decayed-activity policy the second-hit admission
# doorkeeper rejects the one-time keys at the full shard instead (STATS
# must show admission_rejects > 0), and a Zipf-skewed re-burst over the
# hot set afterwards must still hit nearly everywhere (hit-rate floor
# over exactly that window, via a before/after STATS diff).
start_server cache-stress --image "${IMG}" --workers 2 --cache 32

# The hot set, hottest first: --zipf ranks replay lines by file order.
# All eight terms are deterministic products of the seeded generator.
cat > "${WORK}/hot.txt" <<'EOF'
RELAX disorder of kidney
RELAX disorder of lung
RELAX disorder of liver
RELAX disorder of heart
RELAX disorder of skin
RELAX disorder of stomach
RELAX disorder of brain
RELAX disorder of blood
EOF

# Scan pollution: 32 k-variants x 4 terms = 128 distinct cache keys,
# each requested exactly once. k >= 17 keeps them disjoint from the hot
# keys (which resolve to the snapshot default, k=10).
: > "${WORK}/scan.txt"
for k in $(seq 17 48); do
  for t in 'disorder of bone' 'disorder of joint' \
           'disorder of kidney' 'disorder of lung'; do
    printf 'RELAX k=%s %s\n' "${k}" "${t}" >> "${WORK}/scan.txt"
  done
done

# Seed pass: cycle the hot set in order (8 rounds), so every hot key is
# cached and repeatedly touched before the pollution arrives.
"${CLIENT}" load "${PORT}" --requests 64 --connections 1 \
  --replay "${WORK}/hot.txt" > "${WORK}/hot_seed.out" 2>/dev/null
grep -q '^ok load requests=64 answered=64 errors=0$' "${WORK}/hot_seed.out"

# One connection so the 128-line file replays exactly once: every scan
# key stays a first sighting and the doorkeeper must turn it away.
"${CLIENT}" load "${PORT}" --requests 128 --connections 1 \
  --replay "${WORK}/scan.txt" > "${WORK}/scan_load.out" 2>/dev/null
grep -q '^ok load requests=128 answered=128 errors=0$' "${WORK}/scan_load.out"

printf 'STATS\nQUIT\n' | "${CLIENT}" session "${PORT}" \
  > "${WORK}/stress_stats1.out"
if ! grep -q '^admission_rejects=[1-9]' "${WORK}/stress_stats1.out"; then
  echo "server_smoke: the scan burst produced no admission rejects —" \
       "the second-hit doorkeeper is not engaging:" >&2
  cat "${WORK}/stress_stats1.out" >&2
  exit 1
fi

# Zipf(1.1) re-burst over the hot set (seeded, so the draw sequence is
# reproducible); the scan burst must not have displaced those entries.
"${CLIENT}" load "${PORT}" --requests 64 --connections 1 \
  --replay "${WORK}/hot.txt" --zipf 1.1 > "${WORK}/hot_again.out" 2>/dev/null
grep -q '^ok load requests=64 answered=64 errors=0$' "${WORK}/hot_again.out"

printf 'STATS\nQUIT\n' | "${CLIENT}" session "${PORT}" \
  > "${WORK}/stress_stats2.out"
HOT_RATE=$(awk -F= '
  FNR==NR { if ($1=="cache_hits") h1=$2; if ($1=="completed") c1=$2; next }
           { if ($1=="cache_hits") h2=$2; if ($1=="completed") c2=$2 }
  END { if (c2==c1) { print "0"; exit } printf "%.3f", (h2-h1)/(c2-c1) }' \
  "${WORK}/stress_stats1.out" "${WORK}/stress_stats2.out")
if ! awk -v r="${HOT_RATE}" 'BEGIN { exit !(r >= 0.90) }'; then
  echo "server_smoke: hot-set hit rate after the scan burst is" \
       "${HOT_RATE} (< 0.90) — scan pollution displaced the hot set" >&2
  cat "${WORK}/stress_stats2.out" >&2
  exit 1
fi

stop_server

# --- Rebuild: ingest onto the boot image, then a plain RELOAD ---------
# The one rebuild workflow: medrelax_ingest writes a different world
# onto the path the live server booted from, then a plain RELOAD re-maps
# that path. The ingest replaces the file by rename, so until the RELOAD
# the live snapshot keeps answering from its old bytes (an in-place
# rewrite would change its frequency table under it, or SIGBUS it on a
# shorter file). After the RELOAD, gen=2 must answer exactly as a fresh
# server booted from the new image does. The live server sees the probe
# first after the ingest, so its answer is computed, not cached. The
# answers are compared without the banner and the reply's gen= field.
PROBE='RELAX disorder of kidney'
answer_only() {
  grep -v '^ok serving ' | sed 's/^\(ok relax .*\) gen=[0-9]* /\1 /'
}
# Answers PROBE from a fresh stdin server on the image at $1.
fresh_answer() {
  printf '%s\nQUIT\n' "${PROBE}" \
    | "${SERVER}" serve --image "$1" --workers 1 | answer_only
}
# Answers PROBE from the live TCP server.
live_answer() {
  printf '%s\nQUIT\n' "${PROBE}" | "${CLIENT}" session "${PORT}" \
    | answer_only
}
fresh_answer "${IMG}" > "${WORK}/rebuild_old.out"
grep -q '^ok relax ' "${WORK}/rebuild_old.out"
start_server rebuild --image "${IMG}" --workers 1

WORLD2="${WORK}/world2"
mkdir -p "${WORLD2}"
"${TOOL}" generate "${WORLD2}" --concepts 800 --findings 60 --seed 8 \
  >/dev/null
"${INGEST}" "${WORLD2}" "${IMG}" --exact > "${WORK}/ingest2.out" 2>/dev/null
grep -q '^ok ingest ' "${WORK}/ingest2.out"
fresh_answer "${IMG}" > "${WORK}/rebuild_new.out"
grep -q '^ok relax ' "${WORK}/rebuild_new.out"
if cmp -s "${WORK}/rebuild_old.out" "${WORK}/rebuild_new.out"; then
  echo "server_smoke: the second world answers the probe like the" \
       "first; pick a probe that tells them apart" >&2
  exit 1
fi

live_answer > "${WORK}/rebuild_stale.out"
if ! diff -u "${WORK}/rebuild_old.out" "${WORK}/rebuild_stale.out"; then
  echo "server_smoke: re-ingesting the boot image changed the live" \
       "snapshot's answer before any RELOAD" >&2
  exit 1
fi

printf 'RELOAD\nGEN\nQUIT\n' | "${CLIENT}" session "${PORT}" \
  > "${WORK}/rebuild_reload.out"
if ! grep -q '^ok reload gen=2$' "${WORK}/rebuild_reload.out" ||
   ! grep -q '^ok gen=2$' "${WORK}/rebuild_reload.out"; then
  echo "server_smoke: plain RELOAD did not re-map the boot image:" >&2
  cat "${WORK}/rebuild_reload.out" >&2
  exit 1
fi
live_answer > "${WORK}/rebuild_after.out"
if ! diff -u "${WORK}/rebuild_new.out" "${WORK}/rebuild_after.out"; then
  echo "server_smoke: after RELOAD the server answers differently from" \
       "a fresh server on the re-ingested image" >&2
  exit 1
fi

stop_server

# --- Bad flags ---------------------------------------------------------
# Every malformed or out-of-range number must exit 2 with a message
# naming the flag, before anything loads: never a hang (--workers 0 over
# TCP accepts sessions no loop answers), never a silent truncation
# (--listen 70000 used to bind 70000 mod 65536). Unknown flags, stray
# positionals, repeated flags and removed forms (a world directory,
# --exact, the load subcommand) exit 2 with usage instead of being
# ignored. `timeout` turns a regression into a failed probe instead of
# a stuck job. --listen 0 (an ephemeral port) stays valid: every TCP
# stage above relies on it.
expect_flag_error() {
  local what=$1 pattern=$2
  shift 2
  local out rc=0
  out=$(timeout 10 "$@" < /dev/null 2>&1) || rc=$?
  if [[ ${rc} -ne 2 ]]; then
    echo "server_smoke: ${what}: expected a prompt exit 2, got" \
         "rc=${rc} (output: ${out})" >&2
    exit 1
  fi
  if ! grep -q -- "${pattern}" <<<"${out}"; then
    echo "server_smoke: ${what}: output missing '${pattern}'" \
         "(got: ${out})" >&2
    exit 1
  fi
}
expect_flag_error "server --workers abc" "--workers" \
  "${SERVER}" serve --image "${IMG}" --workers abc
expect_flag_error "server --listen 70000" "exceeds the maximum 65535" \
  "${SERVER}" serve --image "${IMG}" --listen 70000
expect_flag_error "server --listen abc" "--listen" \
  "${SERVER}" serve --image "${IMG}" --listen abc
expect_flag_error "server --workers 0 --listen 0" "--workers >= 1" \
  "${SERVER}" serve --image "${IMG}" --workers 0 --listen 0
expect_flag_error "server --deadline-ms overflow" "--deadline-ms" \
  "${SERVER}" serve --image "${IMG}" --deadline-ms 18446744073709551616
expect_flag_error "server serve <dir>" "unexpected argument '${WORLD}'" \
  "${SERVER}" serve "${WORLD}"
expect_flag_error "server --exact" "unexpected argument '--exact'" \
  "${SERVER}" serve --image "${IMG}" --exact
expect_flag_error "server --worker typo" "unexpected argument '--worker'" \
  "${SERVER}" serve --image "${IMG}" --worker 2
expect_flag_error "server --queue (removed)" "unexpected argument '--queue'" \
  "${SERVER}" serve --image "${IMG}" --queue 64
expect_flag_error "server --batch (removed)" "unexpected argument '--batch'" \
  "${SERVER}" serve --image "${IMG}" --batch 8
expect_flag_error "server repeated --workers" "repeated argument '--workers'" \
  "${SERVER}" serve --image "${IMG}" --workers 2 --workers 4
expect_flag_error "server --image without a value" "missing value" \
  "${SERVER}" serve --image
expect_flag_error "server load" "^usage:" \
  "${SERVER}" load "${WORLD}" --requests 10
expect_flag_error "client port 70000" "exceeds the maximum 65535" \
  "${CLIENT}" load 70000
expect_flag_error "client port abc" "port" \
  "${CLIENT}" session abc
expect_flag_error "client --connections abc" "--connections" \
  "${CLIENT}" load 9 --connections abc
expect_flag_error "client --zipf junk" "--zipf" \
  "${CLIENT}" load 9 --zipf 1.1x

echo "server_smoke: PASS"
