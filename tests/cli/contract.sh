#!/usr/bin/env bash
# The command-line contract of chainsim and loadgen:
#
#   * every rejected flag combination exits 2, and stderr names the
#     offending flag or value (a usage error prints the usage text);
#   * every chainsim invocation the repository documents (CI, the smoke
#     scripts, README, the verify notes, chainsim's header) passes
#     validation, checked as a --print-config (or --emit-plan) dry run;
#   * loadgen rejects malformed flags before it sends anything;
#   * only --flows scales a named scenario, and --packets applies to the
#     uniform generator only.
#
#   tests/cli/contract.sh path/to/chainsim path/to/loadgen
#
# ctest runs it as `cli_contract`. Only the loadgen population check sends
# packets: it replays a syn-flood twice to 127.0.0.1:9 (discard) and
# compares the frame counts (sent + send_errors, as nothing listens
# there), so its exit status is ignored.
set -uo pipefail

CHAINSIM="${1:?usage: contract.sh CHAINSIM LOADGEN}"
LOADGEN="${2:?usage: contract.sh CHAINSIM LOADGEN}"
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
failures=0
cases=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# reject NEEDLE CMD...: CMD exits 2 and, when NEEDLE is non-empty, names it
# on stderr.
reject() {
  local needle="$1" rc=0
  shift
  cases=$((cases + 1))
  "$@" > "${TMP}/out" 2> "${TMP}/err" < /dev/null || rc=$?
  if [ "${rc}" -ne 2 ]; then
    fail "exit ${rc}, want 2: ${*}"
  elif [ -n "${needle}" ] && ! grep -qF -- "${needle}" "${TMP}/err"; then
    fail "stderr does not name '${needle}': ${*}: $(cat "${TMP}/err")"
  fi
}

# chainsim_rejects NEEDLE ARGS...
chainsim_rejects() {
  local needle="$1"
  shift
  reject "${needle}" "${CHAINSIM}" "$@"
}

# loadgen_rejects NEEDLE ARGS...
loadgen_rejects() {
  local needle="$1"
  shift
  reject "${needle}" "${LOADGEN}" "$@"
}

# accept CMD...: CMD exits 0.
accept() {
  local rc=0
  cases=$((cases + 1))
  "$@" > "${TMP}/out" 2> "${TMP}/err" < /dev/null || rc=$?
  [ "${rc}" -eq 0 ] || fail "exit ${rc}, want 0: ${*}: $(cat "${TMP}/err")"
}

# dry ARGS...: the chainsim invocation passes validation.
dry() { accept "${CHAINSIM}" "$@" --print-config; }

# packets ARGS...: the packet count of a single-mode CSV chainsim run.
packets() {
  "${CHAINSIM}" "$@" --csv 2> /dev/null | sed -n '2p' | cut -d, -f3
}

# frames ARGS...: the frames a loadgen replay to the discard port tried.
frames() {
  local sent errors
  read -r sent errors < <("${LOADGEN}" --port 9 "$@" 2> /dev/null |
    sed -n 's/.*"sent":\([0-9]*\).*"send_errors":\([0-9]*\).*/\1 \2/p')
  [ -n "${errors:-}" ] && echo $((sent + errors))
}

CHAIN1=nat,maglev,monitor,ipfilter
CHAIN2=ipfilter:drop-dst-prefix=10.1.3.0/24,snort,monitor
cat > "${TMP}/host.json" <<'EOF'
{"version": 1, "name": "contract", "tenants": [
  {"id": "solo", "slo_us": 1000000000,
   "plan": {"chain": {"nfs": ["nat", "monitor"]}, "executor": "runner"},
   "workload": {"kind": "uniform", "flows": 4, "packets_per_flow": 4}}]}
EOF
HOST=(--tenancy "${TMP}/host.json")
"${CHAINSIM}" --chain nat,monitor --mode speedybox \
  --emit-plan "${TMP}/runner.json" 2> /dev/null
"${CHAINSIM}" --chain nat,monitor --mode speedybox --shards 2 \
  --emit-plan "${TMP}/sharded.json" 2> /dev/null
sed 's/"executor"/"exector"/' "${TMP}/runner.json" > "${TMP}/typo.json"
PLAN=(--plan "${TMP}/runner.json")

echo "--- chainsim: documented invocations pass validation"
# .github/workflows/ci.yml
dry --chain snort,monitor --shards 4 --flows 100 --packets 20 \
  --metrics-out "${TMP}/m.jsonl" --metrics-prom "${TMP}/m.prom" \
  --trace-sample 64
dry --chain snort,monitor --shards 2 --flows 50 --packets 20 --batch-size 1
dry --chain snort,monitor --shards 2 --flows 50 --packets 20 --batch-size 32
dry --chain "${CHAIN1}" --datacenter --flows 200 --fail-backend-at 1000
dry --chain firewall,snort --flows 100 --packets 20 \
  --overload 2.0 --drop-policy slo-early-drop
dry --chain nat,monitor --shards 2 --flows 50 --packets 20 \
  --inject-fault monitor:fail-every=7
dry --chain snort,monitor --overload 2.0 --drop-policy per-flow-fair \
  --queue-capacity 512
for executor in runner pipeline; do
  dry --chain "${CHAIN1}" --datacenter --flows 200 --mode both \
    --executor "${executor}"
done
dry --chain "${CHAIN2}" --flows 100 --packets 20 --mode both \
  --executor pipeline --overload 2.0
for w in elephant-mice sync-burst flash-crowd syn-flood; do
  dry --chain ipfilter,snort,monitor --workload "${w}" --flows 60 --shards 2
done
dry --chain dos,monitor --workload syn-flood
dry --chain "${CHAIN1}" --datacenter --flows 120 --mode speedybox \
  --shards 1 --autoscale --max-shards 4 --scale-interval 256 --slo-us 0.5
dry --chain snort,monitor --mode speedybox --shards 1 --autoscale \
  --min-shards 1 --max-shards 2 --slo-us 5
# tools/live_smoke.sh, tools/plan_smoke.sh, tools/tenant_smoke.sh
for proto in udp tcp; do
  dry --chain "${CHAIN1}" --mode speedybox --listen 0 --proto "${proto}" \
    --idle-timeout 2000
done
dry --chain nat,monitor --mode speedybox --listen 0 --idle-timeout 2000
accept "${CHAINSIM}" --chain "${CHAIN2}" --mode speedybox --flows 60 \
  --packets 20 --emit-plan "${TMP}/flags.json"
accept "${CHAINSIM}" --plan "${TMP}/flags.json" --flows 60 --packets 20 \
  --emit-plan -
dry --plan "${TMP}/flags.json" --flows 60 --packets 20
dry --chain "${CHAIN2}" --mode original --flows 60 --packets 20 \
  --metrics-out "${TMP}/profile.jsonl"
# --tenancy echoes nothing, so its in-process run is real (and tiny); its
# live run is tools/tenant_smoke.sh's.
accept "${CHAINSIM}" "${HOST[@]}"
# README.md, the verify notes and chainsim's header comment
dry --chain "${CHAIN1}" --flows 200 --packets 30 --fail-backend-at 3000
dry --chain ipfilter,snort,heavymonitor --datacenter --platform onvm --csv
dry --chain vpn-out,monitor,vpn-in --export-pcap "${TMP}/tunnel.pcap"
dry --chain nat,monitor --pcap "${TMP}/capture.pcap"
dry --chain "${CHAIN1}" --datacenter --shards 4
dry --chain "${CHAIN1}" --datacenter --mode speedybox --shards 1 \
  --autoscale --slo-us 0.5 --max-shards 4
dry --chain "${CHAIN1}" --mode speedybox --listen 0
accept "${CHAINSIM}" --chain ipfilter,snort,monitor --mode speedybox \
  --emit-plan "${TMP}/plan.json"
dry --plan "${TMP}/plan.json"
dry --chain ipfilter,snort,monitor --mode original \
  --metrics-out "${TMP}/profile.jsonl"
dry --chain snort,monitor --packets 20000 --metrics-out "${TMP}/fig7.jsonl" \
  --metrics-prom "${TMP}/fig7.prom" --trace-sample 64
dry --chain "${CHAIN1}" --mode both --flows 100
dry --chain "${CHAIN1}" --mode speedybox --shards 4
dry --chain "${CHAIN1}" --mode both --executor pipeline
dry --chain "${CHAIN1}" --csv
dry --chain "${CHAIN1}" --flows 200 --packets 20
dry --chain ipfilter,snort,monitor --datacenter --csv
dry --chain maglev:backends=8:table=65537,monitor
dry --chain maglev,monitor --fail-backend-at 1000
dry --chain nat,monitor --inject-fault nat:fail-every=100
dry --chain nat,monitor --mode speedybox --listen 9000
accept "${CHAINSIM}" --chain nat,monitor --emit-plan "${TMP}/header.json"

echo "--- chainsim: --tenancy owns the deployment and the workload"
for flag in "--chain nat" "--plan ${TMP}/runner.json" "--mode speedybox" \
            "--executor runner" "--shards 2" "--platform onvm" \
            "--flows 10" "--packets 10" "--payload 10" \
            "--workload syn-flood" "--datacenter" \
            "--pcap ${TMP}/capture.pcap" "--export-pcap ${TMP}/x.pcap" \
            "--overload 2" "--drop-policy tail-drop" "--queue-capacity 10" \
            "--inject-fault nat:fail-every=3" "--autoscale" \
            "--fail-backend-at 5" "--emit-plan -" "--print-config"; do
  # shellcheck disable=SC2086  # each entry is a flag and its value
  chainsim_rejects "${flag%% *}" "${HOST[@]}" ${flag}
done
for knob in "--slo-us 5" "--min-shards 1" "--max-shards 2" \
            "--scale-interval 64"; do
  # shellcheck disable=SC2086
  chainsim_rejects --autoscale "${HOST[@]}" ${knob}
done
chainsim_rejects --listen "${HOST[@]}" --listen 9000

echo "--- chainsim: --plan owns the deployment"
for flag in "--chain nat" "--mode speedybox" "--executor runner" \
            "--shards 2" "--platform onvm" "--batch-size 8" "--overload 2" \
            "--drop-policy tail-drop" "--queue-capacity 10" \
            "--inject-fault nat:fail-every=3" "--autoscale"; do
  # shellcheck disable=SC2086
  chainsim_rejects "${flag%% *}" "${PLAN[@]}" ${flag}
done
chainsim_rejects --autoscale "${PLAN[@]}" --slo-us 5
chainsim_rejects missing.json --plan "${TMP}/missing.json"
chainsim_rejects exector --plan "${TMP}/typo.json"
chainsim_rejects --fail-backend-at --plan "${TMP}/sharded.json" \
  --fail-backend-at 5

echo "--- chainsim: echo, metrics and packet-source rules"
chainsim_rejects --emit-plan --chain nat --mode both --emit-plan -
chainsim_rejects --print-config --chain nat --emit-plan - --print-config
chainsim_rejects --metrics-interval --chain nat --metrics-interval 100
for flag in "--flows 10" "--packets 10" "--payload 10" \
            "--workload syn-flood" "--datacenter"; do
  # shellcheck disable=SC2086
  chainsim_rejects "${flag%% *}" --chain nat --pcap "${TMP}/capture.pcap" \
    ${flag}
done
chainsim_rejects --export-pcap --chain nat --pcap "${TMP}/capture.pcap" \
  --export-pcap "${TMP}/x.pcap"
chainsim_rejects bogus --chain nat --workload bogus

echo "--- chainsim: executor, overload and autoscale rules"
chainsim_rejects --fail-backend-at --chain maglev --shards 2 \
  --fail-backend-at 5
chainsim_rejects --fail-backend-at --chain maglev --executor pipeline \
  --fail-backend-at 5
chainsim_rejects shards --chain nat --shards 2 --executor runner
chainsim_rejects shards --chain nat --executor sharded
chainsim_rejects --autoscale --chain nat --mode speedybox --autoscale
chainsim_rejects --autoscale --chain nat --shards 2 --autoscale
chainsim_rejects --autoscale --chain nat --mode original --shards 2 \
  --autoscale
chainsim_rejects --drop-policy --chain nat --drop-policy tail-drop
chainsim_rejects --queue-capacity --chain nat --queue-capacity 10
for knob in "--slo-us 5" "--min-shards 1" "--max-shards 2" \
            "--scale-interval 64"; do
  # shellcheck disable=SC2086
  chainsim_rejects "${knob%% *}" --chain nat --mode speedybox --shards 2 \
    ${knob}
done
chainsim_rejects --min-shards --chain nat --mode speedybox --shards 2 \
  --autoscale --min-shards 3 --max-shards 2
chainsim_rejects --shards --chain nat --mode speedybox --shards 5 \
  --autoscale --max-shards 4

echo "--- chainsim: live-mode rules"
for flag in "--proto tcp" "--rx-budget 8" "--idle-timeout 5" "--recvmmsg"; do
  # shellcheck disable=SC2086
  chainsim_rejects "${flag%% *}" --chain nat ${flag}
done
LIVE=(--chain nat,maglev --mode speedybox --listen 0)
chainsim_rejects --pcap "${LIVE[@]}" --pcap "${TMP}/capture.pcap"
for flag in "--flows 10" "--packets 10" "--payload 10" \
            "--workload syn-flood" "--datacenter"; do
  # shellcheck disable=SC2086
  chainsim_rejects "${flag%% *}" "${LIVE[@]}" ${flag}
done
chainsim_rejects --export-pcap "${LIVE[@]}" --export-pcap "${TMP}/x.pcap"
chainsim_rejects --fail-backend-at "${LIVE[@]}" --fail-backend-at 5
chainsim_rejects --autoscale "${LIVE[@]}" --shards 1 --autoscale
chainsim_rejects --mode --chain nat --listen 0

echo "--- chainsim: malformed values"
chainsim_rejects bogusnf --chain nat,bogusnf
chainsim_rejects bogus --chain maglev:bogus=1
chainsim_rejects snort --chain nat --inject-fault snort:fail-every=3
chainsim_rejects bogus --chain nat --executor bogus
chainsim_rejects --inject-fault --chain nat --inject-fault garbage
for flag in "--flows abc" "--flows 0" "--packets 0" "--payload x" \
            "--seed 1.5" "--shards 0" "--batch-size 0" "--overload 0" \
            "--queue-capacity 0" "--slo-us abc" "--trace-sample 0" \
            "--rx-budget 0" "--idle-timeout 0" "--listen abc"; do
  # shellcheck disable=SC2086
  chainsim_rejects "${flag%% *}" --chain nat ${flag}
done
for flag in "--platform bogus" "--mode bogus" "--drop-policy bogus" \
            "--proto bogus" "--log-level bogus" "--bogus" "--flows"; do
  # shellcheck disable=SC2086
  chainsim_rejects "" --chain nat ${flag}
done
chainsim_rejects "" --flows 10

echo "--- loadgen: rejections before any send"
loadgen_rejects --ports --port 9 --ports 10
loadgen_rejects --tenants --port 9 --rate 10,20
loadgen_rejects --tenants --tenants 2 --ports 10
loadgen_rejects 65536 --port 65535 --tenants 2
loadgen_rejects bogus --port 9 --workload bogus
loadgen_rejects "" --flows 10
for flag in "--port 0" "--port abc" "--proto sctp" "--rate -5" \
            "--rate 1,x" "--ports 1,x" "--tenants 0" "--repeat 0" \
            "--snort-match abc" "--bogus"; do
  # shellcheck disable=SC2086
  loadgen_rejects "" --port 9 ${flag}
done

# The chainsim cases below add --print-config, so that a binary which
# wrongly accepts them echoes its config instead of running the chain.
echo "--- fix: numeric flags parse strictly"
chainsim_rejects --fail-backend-at --chain maglev --fail-backend-at abc \
  --print-config
chainsim_rejects --metrics-interval --chain nat --metrics-interval abc \
  --print-config
chainsim_rejects --flows --chain nat --flows -1 --print-config
for flag in "--flows abc" "--packets abc" "--payload abc" "--seed abc" \
            "--tenants 2x" "--repeat 3x"; do
  # shellcheck disable=SC2086
  loadgen_rejects "${flag%% *}" --port 9 ${flag}
done
loadgen_rejects snort --port 9 --snort-match 2

echo "--- fix: --seed is a workload flag"
chainsim_rejects --seed --chain nat --mode speedybox --listen 0 --seed 7 \
  --print-config
chainsim_rejects --seed --chain nat --pcap "${TMP}/capture.pcap" --seed 7 \
  --print-config
chainsim_rejects --seed "${HOST[@]}" --seed 7

echo "--- fix: only --flows scales a named scenario"
cases=$((cases + 1))
plain="$(packets --chain nat,monitor --mode speedybox --workload flash-crowd)"
shaped="$(packets --chain nat,monitor --mode speedybox --workload flash-crowd \
            --payload 128)"
[ -n "${plain}" ] && [ "${plain}" = "${shaped}" ] ||
  fail "flash-crowd runs ${plain} packets, ${shaped} with --payload 128"
cases=$((cases + 1))
plain="$(packets --chain dos,monitor --mode speedybox --workload syn-flood)"
shaped="$(packets --chain dos,monitor --mode speedybox --workload syn-flood \
            --payload 64)"
[ -n "${plain}" ] && [ "${plain}" = "${shaped}" ] ||
  fail "syn-flood runs ${plain} packets, ${shaped} with --payload 64"
cases=$((cases + 1))
plain="$(frames --workload syn-flood)"
shaped="$(frames --workload syn-flood --payload 64)"
[ -n "${plain}" ] && [ "${plain}" = "${shaped}" ] ||
  fail "loadgen syn-flood sends ${plain} packets, ${shaped} with --payload 64"
chainsim_rejects --packets --chain dos,monitor --workload syn-flood \
  --packets 5 --print-config
chainsim_rejects --packets --chain nat --datacenter --packets 5 \
  --print-config
loadgen_rejects --packets --port 9 --workload syn-flood --packets 5

if [ "${failures}" -ne 0 ]; then
  echo "cli contract: ${failures} of ${cases} case(s) FAILED" >&2
  exit 1
fi
echo "cli contract: all ${cases} cases hold"
