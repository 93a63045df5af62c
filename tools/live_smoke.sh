#!/usr/bin/env bash
# Closed-loop live-ingestion smoke: start `chainsim --listen 0` on an
# ephemeral port, replay a workload into it with `loadgen`, and check the
# frame-conservation identity end to end across the process boundary:
#
#   sent == admitted + shed + parse_errors + socket_drops
#
# with `sent` counted by the load generator and the right-hand side by the
# receiver (chainsim's {"live":...} summary line). Runs both §VII-C
# evaluation chains plus the DoS chain under a syn-flood, over UDP and
# TCP, then checks that live mode's memory is bounded on every executor
# shape (the runner, `--shards 2` and `--executor pipeline`): the peak RSS
# of a 2M-packet run stays within 1.5x of a 0.2M-packet run. This is the
# CI `live-ingest-smoke` job; run it locally the same way:
#
#   tools/live_smoke.sh [build_dir]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CHAINSIM="${BUILD}/tools/chainsim"
LOADGEN="${BUILD}/tools/loadgen"
[ -x "${CHAINSIM}" ] || { echo "missing ${CHAINSIM} (build chainsim first)" >&2; exit 2; }
[ -x "${LOADGEN}" ] || { echo "missing ${LOADGEN} (build loadgen first)" >&2; exit 2; }

failures=0

# Prints the UDP port chainsim (pid $1, stdout in file $2) announces before
# serve() blocks; prints nothing if it exits or never announces one.
announced_port() {
  local pid="$1" out="$2" port=""
  for _ in $(seq 1 200); do
    port="$(sed -n 's/^chainsim: listening on [a-z]* 127\.0\.0\.1:\([0-9]*\).*/\1/p' "${out}")"
    [ -n "${port}" ] && break
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.05
  done
  echo "${port}"
}

run_case() {
  local name="$1" chain="$2" proto="$3" workload="$4"
  echo "--- live smoke: ${name} (--chain ${chain}, ${proto}, ${workload})"
  local out
  out="$(mktemp)"
  "${CHAINSIM}" --chain "${chain}" --mode speedybox \
    --listen 0 --proto "${proto}" --idle-timeout 2000 > "${out}" &
  local pid=$!
  local port
  port="$(announced_port "${pid}" "${out}")"
  if [ -z "${port}" ]; then
    echo "FAIL ${name}: chainsim never announced a port" >&2
    cat "${out}" >&2
    kill "${pid}" 2>/dev/null || true
    failures=$((failures + 1))
    return
  fi
  local gen_json
  if ! gen_json="$("${LOADGEN}" --port "${port}" --proto "${proto}" \
                     --workload "${workload}")"; then
    echo "FAIL ${name}: loadgen reported send errors" >&2
    kill "${pid}" 2>/dev/null || true
    failures=$((failures + 1))
    return
  fi
  local rc=0
  wait "${pid}" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "FAIL ${name}: chainsim exited ${rc} (conservation violated)" >&2
    cat "${out}" >&2
    failures=$((failures + 1))
    return
  fi
  if ! python3 - "${out}" "${gen_json}" <<'PYEOF'
import json
import sys

live = None
for line in open(sys.argv[1]):
    line = line.strip()
    if line.startswith('{"live"'):
        live = json.loads(line)["live"]
gen = json.loads(sys.argv[2])["loadgen"]
if live is None:
    sys.exit("no {\"live\":...} summary line in chainsim output")
if not live["conserved"]:
    sys.exit(f"receiver-side conservation violated: {live}")
sent = gen["sent"]
accounted = (live["admitted"] + live["shed"] + live["parse_errors"]
             + live["socket_drops"])
if sent == 0:
    sys.exit("loadgen sent nothing")
if sent != accounted:
    sys.exit(f"conservation violated across the wire: sent={sent} != "
             f"admitted={live['admitted']} + shed={live['shed']} + "
             f"parse_errors={live['parse_errors']} + "
             f"socket_drops={live['socket_drops']}")
print(f"    ok: sent={sent} admitted={live['admitted']} "
      f"shed={live['shed']} parse_errors={live['parse_errors']} "
      f"socket_drops={live['socket_drops']} "
      f"chain_drops={live['chain_drops']}")
PYEOF
  then
    failures=$((failures + 1))
    return
  fi
  rm -f "${out}"
}

# Peak RSS (chainsim's peak_rss_kb) of a live run fed `--repeat $1`
# copies of 100 flows x 1000 packets, with the executor flags that follow;
# empty on failure.
live_peak_rss_kb() {
  local repeat="$1" out pid port
  shift
  out="$(mktemp)"
  "${CHAINSIM}" --chain nat,monitor --mode speedybox "$@" \
    --listen 0 --idle-timeout 2000 > "${out}" &
  pid=$!
  port="$(announced_port "${pid}" "${out}")"
  [ -n "${port}" ] &&
    "${LOADGEN}" --port "${port}" --packets 1000 --repeat "${repeat}" \
      > /dev/null &&
    wait "${pid}" && sed -n 's/.*"peak_rss_kb":\([0-9]*\).*/\1/p' "${out}"
  kill "${pid}" 2>/dev/null || true
  rm -f "${out}"
}

# §VII-C Chain 1 (gateway) over UDP, Chain 2 (inspection) over TCP, and
# the syn-flood acceptance scenario through the DoS chain.
run_case gateway nat,maglev,monitor,ipfilter udp datacenter
run_case inspection ipfilter,snort,monitor tcp datacenter
run_case synflood dos,monitor udp syn-flood

# Live mode keeps no per-packet state on any executor shape: ten times the
# packets may cost at most 1.5x the memory.
check_bounded_memory() {
  local shape="$1"
  shift
  echo "--- live smoke: bounded memory, ${shape} (--chain nat,monitor," \
       "0.2M vs 2M packets)"
  local short long
  short="$(live_peak_rss_kb 2 "$@")"
  long="$(live_peak_rss_kb 20 "$@")"
  if [ -z "${short}" ] || [ -z "${long}" ] ||
     [ $((long * 2)) -gt $((short * 3)) ]; then
    echo "FAIL memory (${shape}): peak RSS '${short}' kB at 0.2M packets," \
         "'${long}' kB at 2M (limit 1.5x)" >&2
    failures=$((failures + 1))
  else
    echo "    ok: peak RSS ${short} kB at 0.2M packets, ${long} kB at 2M"
  fi
}
check_bounded_memory runner
check_bounded_memory "2 shards" --shards 2
check_bounded_memory pipeline --executor pipeline

if [ "${failures}" -ne 0 ]; then
  echo "live smoke: ${failures} case(s) FAILED" >&2
  exit 1
fi
echo "live smoke: all cases conserved, memory bounded"
