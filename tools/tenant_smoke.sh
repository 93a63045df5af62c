#!/usr/bin/env bash
# Multi-tenant hosting smoke (DESIGN.md §14), two closed loops:
#
#  1. In-process adversarial case: a well-behaved tenant with a tight SLO
#     shares the host with a syn-flood tenant. chainsim --tenancy must
#     conserve every packet per tenant AND the arbiter must land all
#     enforcement on the offender: victim gate untouched (zero shed,
#     ladder at L0), flood tightened (escalation >= L1, shed > 0).
#
#  2. Live case over real loopback sockets: two tenants on ephemeral UDP
#     ports, loadgen fans a workload across both with per-tenant pacing,
#     and the frame ledger must close across the process boundary per
#     tenant:
#
#       sent == offered + parse_errors + socket_drops
#
# This is the CI `tenant-smoke` job; run it locally the same way:
#
#   tools/tenant_smoke.sh [build_dir]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CHAINSIM="${BUILD}/tools/chainsim"
LOADGEN="${BUILD}/tools/loadgen"
[ -x "${CHAINSIM}" ] || { echo "missing ${CHAINSIM} (build chainsim first)" >&2; exit 2; }
[ -x "${LOADGEN}" ] || { echo "missing ${LOADGEN} (build loadgen first)" >&2; exit 2; }

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
failures=0

# --- case 1: in-process adversarial tenant -------------------------------
echo "--- tenant smoke: adversarial (in-process, SLO enforcement)"
cat > "${workdir}/adversarial.json" <<'EOF'
{"version": 1, "name": "smoke-adversarial", "tenants": [
  {"id": "victim", "slo_us": 0.001,
   "plan": {"chain": {"nfs": ["nat", "monitor"]},
            "executor": "sharded", "shards": 2},
   "workload": {"kind": "uniform", "flows": 50, "packets_per_flow": 16,
                "seed": 11}},
  {"id": "flood", "slo_us": 1000000000,
   "plan": {"chain": {"nfs": ["ipfilter", "monitor"]},
            "executor": "runner"},
   "workload": {"kind": "syn-flood", "seed": 12, "repeat": 2}}],
 "enforcement": {"window_packets": 256, "breach_streak": 1,
                 "cooldown_windows": 0, "min_budget": 16,
                 "reallocate_shards": false}}
EOF
if "${CHAINSIM}" --tenancy "${workdir}/adversarial.json" \
     > "${workdir}/adversarial.out"; then
  if ! python3 - "${workdir}/adversarial.out" <<'PYEOF'
import json
import sys

tenants = {}
summary = None
for line in open(sys.argv[1]):
    line = line.strip()
    if line.startswith('{"tenant"'):
        t = json.loads(line)["tenant"]
        tenants[t["id"]] = t
    elif line.startswith('{"tenancy"'):
        summary = json.loads(line)["tenancy"]
if summary is None or not summary["conserved"]:
    sys.exit(f"host summary missing or not conserved: {summary}")
victim, flood = tenants["victim"], tenants["flood"]
for t in (victim, flood):
    if not t["conserved"]:
        sys.exit(f"tenant {t['id']} ledger violated: {t}")
if victim["gate_shed"] != 0 or victim["max_escalation"] != 0:
    sys.exit(f"arbiter touched the victim: {victim}")
if flood["max_escalation"] < 1 or flood["gate_shed"] == 0:
    sys.exit(f"arbiter never tightened the flood: {flood}")
print(f"    ok: victim delivered={victim['delivered']} untouched; "
      f"flood shed={flood['gate_shed']} at L{flood['max_escalation']}")
PYEOF
  then
    cat "${workdir}/adversarial.out" >&2
    failures=$((failures + 1))
  fi
else
  echo "FAIL adversarial: chainsim --tenancy exited non-zero" >&2
  cat "${workdir}/adversarial.out" >&2
  failures=$((failures + 1))
fi

# --- case 2: live two-tenant loop over loopback UDP ------------------------
echo "--- tenant smoke: live (two tenants, loadgen fan-out)"
cat > "${workdir}/live.json" <<'EOF'
{"version": 1, "name": "smoke-live", "tenants": [
  {"id": "alpha", "slo_us": 1000000000,
   "plan": {"chain": {"nfs": ["nat", "monitor"]},
            "executor": "sharded", "shards": 1},
   "workload": {"kind": "uniform", "flows": 50, "packets_per_flow": 20,
                "seed": 21}},
  {"id": "bravo", "slo_us": 1000000000,
   "plan": {"chain": {"nfs": ["ipfilter", "monitor"]},
            "executor": "runner"},
   "workload": {"kind": "uniform", "flows": 50, "packets_per_flow": 20,
                "seed": 22}}]}
EOF
"${CHAINSIM}" --tenancy "${workdir}/live.json" --listen 0 \
  --idle-timeout 2000 > "${workdir}/live.out" &
pid=$!
ports=""
for _ in $(seq 1 200); do
  ports="$(sed -n \
    's/^chainsim: tenant [a-z]* listening on udp 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "${workdir}/live.out" | paste -sd, -)"
  [ "$(echo "${ports}" | tr -cd , | wc -c)" = "1" ] && break
  kill -0 "${pid}" 2>/dev/null || break
  sleep 0.05
done
if [ "$(echo "${ports}" | tr -cd , | wc -c)" != "1" ]; then
  echo "FAIL live: chainsim never announced both tenant ports" >&2
  cat "${workdir}/live.out" >&2
  kill "${pid}" 2>/dev/null || true
  failures=$((failures + 1))
else
  if gen_json="$("${LOADGEN}" --tenants 2 --ports "${ports}" \
                   --rate 20000,20000 --flows 50 --packets 20)"; then
    rc=0
    wait "${pid}" || rc=$?
    if [ "${rc}" -ne 0 ]; then
      echo "FAIL live: chainsim exited ${rc} (conservation violated)" >&2
      cat "${workdir}/live.out" >&2
      failures=$((failures + 1))
    elif ! python3 - "${workdir}/live.out" "${gen_json}" <<'PYEOF'
import json
import sys

tenants = {}
summary = None
for line in open(sys.argv[1]):
    line = line.strip()
    if line.startswith('{"tenant"'):
        t = json.loads(line)["tenant"]
        tenants[t["udp_port"]] = t
    elif line.startswith('{"tenancy"'):
        summary = json.loads(line)["tenancy"]
if summary is None or summary["mode"] != "live" or not summary["conserved"]:
    sys.exit(f"live summary missing or not conserved: {summary}")
sent = {}
for line in sys.argv[2].splitlines():
    line = line.strip()
    if line.startswith('{"loadgen":'):
        g = json.loads(line)["loadgen"]
        sent[g["port"]] = g["sent"]
if len(sent) != 2 or len(tenants) != 2:
    sys.exit(f"expected 2 tenants each side: sent={sent} "
             f"tenants={sorted(tenants)}")
for port, t in sorted(tenants.items()):
    if sent.get(port, 0) == 0:
        sys.exit(f"loadgen sent nothing to port {port}")
    accounted = t["offered"] + t["parse_errors"] + t["socket_drops"]
    if sent[port] != accounted:
        sys.exit(f"tenant {t['id']} wire ledger violated: "
                 f"sent={sent[port]} != offered={t['offered']} + "
                 f"parse_errors={t['parse_errors']} + "
                 f"socket_drops={t['socket_drops']}")
    print(f"    ok: tenant {t['id']} port {port} sent={sent[port]} "
          f"offered={t['offered']} forwarded={t['forwarded']} "
          f"chain_drops={t['chain_drops']}")
PYEOF
    then
      failures=$((failures + 1))
    fi
  else
    echo "FAIL live: loadgen reported send errors" >&2
    kill "${pid}" 2>/dev/null || true
    failures=$((failures + 1))
  fi
fi

if [ "${failures}" -ne 0 ]; then
  echo "tenant smoke: ${failures} case(s) FAILED" >&2
  exit 1
fi
echo "tenant smoke: all cases conserved and isolated"
