#!/usr/bin/env bash
# Server smoke: boots the real `tkc serve` binary on a free port, drives a
# query + append + stats/metrics round-trip with curl, runs the load
# generator briefly against it, and shuts the server down with SIGINT
# (exercising the graceful drain path). Fails on any non-2xx answer or a
# missing metric. It runs twice: unsharded, then with three time-range
# shards and a frontier small enough that the load generator's appends
# auto-seal it. CI runs this as the serving layer's end-to-end check
# outside the Go test harness.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/tkc" ./cmd/tkc
go build -o "$workdir/tkcgen" ./cmd/tkcgen
go build -o "$workdir/tkcload" ./cmd/tkcload

echo "== generate graph"
"$workdir/tkcgen" -dataset FB -edges 2000 -seed 1 -out "$workdir/edges.txt"

# smoke runs one serve mode; its arguments are extra `tkc serve` flags,
# and any flag at all makes it a sharded mode.
smoke() {
  local mode=unsharded
  [[ $# -gt 0 ]] && mode=sharded

  echo "== [$mode] start server"
  "$workdir/tkc" serve -graph "$workdir/edges.txt" -addr 127.0.0.1:0 "$@" >"$workdir/serve.log" 2>&1 &
  server_pid=$!

  local base=""
  for _ in $(seq 1 50); do
    base=$(sed -n 's/^serve: listening on //p' "$workdir/serve.log" | head -1)
    [[ -n "$base" ]] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$workdir/serve.log"; echo "server died"; exit 1; }
    sleep 0.1
  done
  [[ -n "$base" ]] || { cat "$workdir/serve.log"; echo "no listening line"; exit 1; }
  echo "   serving at $base"

  echo "== [$mode] query round-trip"
  local body trailer
  body=$(curl -sS --fail-with-body -X POST "$base/v1/query" \
    -H 'Content-Type: application/json' -d '{"k":3,"project":"count","earlyStop":5}')
  trailer=$(echo "$body" | tail -1)
  grep -q '"stats"' <<<"$trailer" || { echo "no stats trailer: $body"; exit 1; }
  if [[ $mode == sharded ]]; then
    grep -q '"shards":' <<<"$trailer" || { echo "no shard count in the trailer: $trailer"; exit 1; }
  fi

  echo "== [$mode] append round-trip"
  local frontier
  frontier=$(curl -sS "$base/v1/stats" | sed -n 's/.*"end":\([0-9-]*\).*/\1/p')
  printf '{"u":9001,"v":9002,"t":%d}\n{"u":9002,"v":9003,"t":%d}\n' \
    "$((frontier + 1))" "$((frontier + 1))" |
    curl -sS --fail-with-body -X POST "$base/v1/append" --data-binary @- |
    grep -q '"added":2' || { echo "append failed"; exit 1; }

  echo "== [$mode] stats + metrics"
  curl -sS "$base/v1/stats" | grep -q '"epoch":1' || { echo "epoch did not advance"; exit 1; }
  local metrics want=(tkc_requests_total tkc_epoch_seq tkc_graph_edges tkc_cache_hits_total)
  [[ $mode == sharded ]] && want+=(tkc_shard_edges)
  metrics=$(curl -sS "$base/metrics")
  for m in "${want[@]}"; do
    grep -q "$m" <<<"$metrics" || { echo "metrics missing $m"; exit 1; }
  done

  echo "== [$mode] load generator"
  "$workdir/tkcload" -addr "${base#http://}" -duration 2s -readers 2 -append \
    -append-batch 100 -append-every 200ms

  echo "== [$mode] graceful shutdown"
  kill -INT "$server_pid"
  for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$server_pid" 2>/dev/null; then
    echo "server ignored SIGINT"
    exit 1
  fi
  wait "$server_pid" || { echo "server exited non-zero"; cat "$workdir/serve.log"; exit 1; }
  server_pid=""
  grep -q "serve: bye" "$workdir/serve.log" || { echo "no clean shutdown line"; cat "$workdir/serve.log"; exit 1; }
}

smoke
smoke -shards 3 -max-shard-edges 500

echo "serve smoke OK"
