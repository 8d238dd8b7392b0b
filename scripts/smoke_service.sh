#!/usr/bin/env bash
# Smoke test for asiccloudd: build the daemon and the CLI, run one sweep
# through the HTTP API, and check the three properties the service
# guarantees — the daemon's TCO-optimal answer matches the CLI's
# verbatim, an identical resubmission is served from the cache
# byte-for-byte, and the cache-hit counter on /metrics accounts for it.
# The daemon's answer to the committed golden request must also equal,
# byte for byte, the golden result TestResultGolden pins for RunOnce.
# It ends by sending SIGTERM during a running sweep, which the daemon
# must drain: the sweep finishes done and the daemon exits 0.
# Run from the repository root (make check does).
set -euo pipefail

fail() { echo "smoke_service: FAIL: $*" >&2; exit 1; }

for tool in curl jq; do
    command -v "$tool" >/dev/null || fail "$tool not found on PATH"
done

workdir=$(mktemp -d)
daemon_pid=""
sse_pid=""
cleanup() {
    if [[ -n "$sse_pid" ]]; then
        kill "$sse_pid" 2>/dev/null || true
    fi
    if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -TERM "$daemon_pid" 2>/dev/null || true
        wait "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "smoke_service: building asiccloudd and asiccloud"
go build -o "$workdir/asiccloudd" ./cmd/asiccloudd
go build -o "$workdir/asiccloud" ./cmd/asiccloud

"$workdir/asiccloudd" -addr 127.0.0.1:0 >"$workdir/daemon.out" 2>"$workdir/daemon.err" &
daemon_pid=$!

# The daemon prints "asiccloudd: listening on HOST:PORT" once bound.
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^asiccloudd: listening on //p' "$workdir/daemon.out")
    [[ -n "$addr" ]] && break
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$workdir/daemon.err" >&2; fail "daemon exited during startup"; }
    sleep 0.1
done
[[ -n "$addr" ]] || fail "daemon never reported its listen address"
base="http://$addr"
echo "smoke_service: daemon on $base"

# wait_done JOB LABEL polls JOB until it is terminal and fails unless it
# ended done.
wait_done() {
    local state="queued"
    for _ in $(seq 1 200); do
        state=$(curl -sf "$base/v1/sweeps/$1" | jq -er .state)
        [[ "$state" == "done" || "$state" == "failed" || "$state" == "canceled" ]] && break
        sleep 0.1
    done
    [[ "$state" == "done" ]] || fail "$2 $1 ended in state $state"
}

# Submit the quickstart sweep and poll the job to completion.
curl -sf -X POST "$base/v1/sweeps" -d '{"app":"bitcoin"}' >"$workdir/post1.json" \
    || fail "POST /v1/sweeps"
job=$(jq -er .id "$workdir/post1.json")
wait_done "$job" job
curl -sf "$base/v1/sweeps/$job/result" >"$workdir/result1.json" || fail "GET result"

# Property 1: the daemon's TCO-optimal point matches the CLI verbatim.
"$workdir/asiccloud" design -app bitcoin >"$workdir/cli.out"
daemon_line=$(jq -er .tco_optimal.describe "$workdir/result1.json")
cli_line=$(sed -n 's/^TCO-optimal:[[:space:]]*//p' "$workdir/cli.out")
[[ -n "$cli_line" ]] || fail "CLI printed no TCO-optimal line"
if [[ "$daemon_line" != "$cli_line" ]]; then
    printf 'daemon: %s\nCLI:    %s\n' "$daemon_line" "$cli_line" >&2
    fail "daemon and CLI disagree on the TCO-optimal design"
fi
echo "smoke_service: daemon TCO-optimal matches CLI"

# Property 1b: a carbon-objective sweep is its own cache entry, echoes
# its objective, and its carbon-optimal answer matches the CLI verbatim.
curl -sf -X POST "$base/v1/sweeps" -d '{"app":"bitcoin","objective":"carbon"}' >"$workdir/postc.json" \
    || fail "carbon POST /v1/sweeps"
jq -e '.cached != true' "$workdir/postc.json" >/dev/null \
    || fail "carbon-objective request wrongly shared the tco cache entry"
jobc=$(jq -er .id "$workdir/postc.json")
wait_done "$jobc" "carbon job"
curl -sf "$base/v1/sweeps/$jobc/result" >"$workdir/resultc.json" || fail "GET carbon result"
jq -e '.objective == "carbon"' "$workdir/resultc.json" >/dev/null \
    || fail "carbon result does not echo objective=carbon"
daemon_carbon=$(jq -er .carbon_optimal.describe "$workdir/resultc.json")
cli_carbon=$(sed -n 's/^carbon-optimal:[[:space:]]*//p' "$workdir/cli.out")
[[ -n "$cli_carbon" ]] || fail "CLI printed no carbon-optimal line"
if [[ "$daemon_carbon" != "$cli_carbon" ]]; then
    printf 'daemon: %s\nCLI:    %s\n' "$daemon_carbon" "$cli_carbon" >&2
    fail "daemon and CLI disagree on the carbon-optimal design"
fi
echo "smoke_service: daemon carbon-optimal matches CLI"

# Property 1c: every field of the HTTP answer, not only describe. The
# committed golden request, sent verbatim, must come back as exactly the
# bytes of its golden result. It is a distinct request, so it leaves the
# cache-hit count of property 3 alone.
golden=internal/service/testdata/result
curl -sf -X POST "$base/v1/sweeps" --data-binary "@$golden/bitcoin.request.json" >"$workdir/postg.json" \
    || fail "golden POST /v1/sweeps"
jobg=$(jq -er .id "$workdir/postg.json")
wait_done "$jobg" "golden job"
curl -sf "$base/v1/sweeps/$jobg/result" >"$workdir/resultg.json" || fail "GET golden result"
if ! cmp -s "$workdir/resultg.json" "$golden/bitcoin.json"; then
    diff <(jq -S . "$golden/bitcoin.json") <(jq -S . "$workdir/resultg.json") >&2 || true
    fail "daemon result differs from $golden/bitcoin.json"
fi
echo "smoke_service: daemon result matches $golden/bitcoin.json byte for byte"

# Property 2: an identical resubmission is a cache hit with the exact
# same bytes.
curl -sf -X POST "$base/v1/sweeps" -d '{"app":"bitcoin"}' >"$workdir/post2.json" \
    || fail "second POST"
jq -e '.cached == true and .state == "done"' "$workdir/post2.json" >/dev/null \
    || fail "second submission was not served from the cache"
job2=$(jq -er .id "$workdir/post2.json")
curl -sf "$base/v1/sweeps/$job2/result" >"$workdir/result2.json" || fail "GET cached result"
cmp -s "$workdir/result1.json" "$workdir/result2.json" \
    || fail "cached result is not byte-identical to the original"
echo "smoke_service: cache hit is byte-identical"

# Property 3: the hit shows up on /metrics.
curl -sf "$base/metrics" >"$workdir/metrics.txt" || fail "GET /metrics"
grep -q '^asiccloud_cache_hits_total 1$' "$workdir/metrics.txt" \
    || fail "/metrics does not show asiccloud_cache_hits_total 1"
echo "smoke_service: cache-hit counter accounted on /metrics"

# Property 4: one submission is one connected trace. POST a distinct
# sweep (a fresh cache key, so the engine actually runs), follow its
# SSE stream to the terminal event, then fetch the span tree.
curl -sf -X POST "$base/v1/sweeps" -d '{"app":"litecoin"}' >"$workdir/post3.json" \
    || fail "third POST"
job3=$(jq -er .id "$workdir/post3.json")
trace3=$(jq -er .trace_id "$workdir/post3.json") || fail "submission status has no trace_id"

# The SSE stream ends when the job reaches a terminal state; --max-time
# bounds the wait if it never does.
curl -sN --max-time 30 "$base/v1/sweeps/$job3/events" >"$workdir/events.txt" \
    || fail "SSE stream did not complete"
grep '^data: ' "$workdir/events.txt" | sed 's/^data: //' >"$workdir/events.json"
[[ -s "$workdir/events.json" ]] || fail "SSE stream carried no events"
last_state=$(tail -n 1 "$workdir/events.json" | jq -er .state)
[[ "$last_state" == "done" ]] || fail "SSE stream ended in state $last_state"
jq -es --arg id "$job3" --arg tid "$trace3" \
    'all(.id == $id and .trace_id == $tid)' "$workdir/events.json" | grep -q true \
    || fail "SSE events not correlated to the job and its trace"
echo "smoke_service: SSE stream followed job $job3 to completion"

curl -sf "$base/v1/sweeps/$job3/trace" >"$workdir/trace.json" || fail "GET trace"
jq -e --arg tid "$trace3" '.trace_id == $tid' "$workdir/trace.json" >/dev/null \
    || fail "trace endpoint reports a different trace_id"
jq -e '.spans | length >= 3' "$workdir/trace.json" >/dev/null \
    || fail "trace has fewer than 3 spans (request, job, engine)"
jq -e '[.spans[].trace_id] | unique == [.[0]]' "$workdir/trace.json" >/dev/null \
    || fail "spans do not all share one trace ID"
jq -e '.tree[0].name == "POST /v1/sweeps"' "$workdir/trace.json" >/dev/null \
    || fail "span tree is not rooted at the HTTP request span"
jq -e '.pruned.generated > 0' "$workdir/trace.json" >/dev/null \
    || fail "trace is missing prune accounting"
echo "smoke_service: trace endpoint shows one connected span tree"

# Property 5: the daemon's JSON log lines carry the same correlation
# IDs, so a trace ID found in a log line leads straight to its spans.
jq -es --arg id "$job3" --arg tid "$trace3" \
    'map(select(.job_id == $id)) | length > 0 and all(.[]; .trace_id == $tid)' \
    "$workdir/daemon.err" | grep -q true \
    || fail "daemon log lines for job $job3 are not trace-correlated"
echo "smoke_service: log lines correlated by job_id and trace_id"

# Property 6: SIGTERM during a running sweep drains it. Submit a sweep
# that runs for seconds, follow its SSE stream until it reports running,
# and signal. A new POST must get 503, the running sweep must still end
# done, and the daemon must exit 0. The result cache lives in memory, so
# these checks are what "no half-written cache entry" comes to. A job
# already terminal when the signal landed fails the script: its "job
# finished" line would precede "draining on signal". The sweep (600
# voltages by 200 silicon values, stacked) runs about 10 s on a 2-vCPU
# VM, long enough that a fast runner cannot finish it first.
voltages=$(seq -s, 0.400 0.001 0.999)
silicon=$(seq -s, 30 30 6000)
curl -sf -X POST "$base/v1/sweeps" \
    -d "{\"app\":\"xcode\",\"sweep\":{\"voltages_v\":[$voltages],\"silicon_per_lane_mm2\":[$silicon],\"stacked\":true}}" \
    >"$workdir/post4.json" || fail "long-sweep POST"
job4=$(jq -er .id "$workdir/post4.json")
curl -sN --max-time 300 "$base/v1/sweeps/$job4/events" >"$workdir/events4.txt" &
sse_pid=$!
for _ in $(seq 1 300); do
    grep -q '"state":"running"' "$workdir/events4.txt" && break
    sleep 0.1
done
grep -q '"state":"running"' "$workdir/events4.txt" || fail "long sweep $job4 never reported running"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
    grep -q '"msg":"draining on signal"' "$workdir/daemon.err" && break
    sleep 0.1
done
grep -q '"msg":"draining on signal"' "$workdir/daemon.err" || fail "daemon never logged draining on signal"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/sweeps" -d '{"app":"litecoin","sweep":{"stacked":true}}') || true
[[ "$code" == 503 ]] || fail "POST while draining got $code, want 503"
wait "$sse_pid" || fail "SSE stream of the draining sweep did not complete"
sse_pid=""
last4=$(grep '^data: ' "$workdir/events4.txt" | tail -n 1 | sed 's/^data: //' | jq -er .state)
[[ "$last4" == "done" ]] || fail "draining sweep's SSE stream ended in state $last4"
if ! wait "$daemon_pid"; then
    cat "$workdir/daemon.err" >&2
    fail "daemon exited non-zero on SIGTERM"
fi
daemon_pid=""
jq -es --arg id "$job4" '
    (map(.msg == "draining on signal") | index(true)) as $d
    | (map(.msg == "job finished" and .job_id == $id) | index(true)) as $f
    | $d != null and $f != null and $f > $d and .[$f].state == "done"' \
    "$workdir/daemon.err" >/dev/null \
    || fail "sweep $job4 did not finish done after draining on signal (already terminal when signaled?)"
echo "smoke_service: SIGTERM during a running sweep drained it; daemon exited 0"
echo "smoke_service: PASS"
