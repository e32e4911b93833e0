// Command tkc runs and serves time-range temporal k-core queries.
//
// Subcommands:
//
//	tkc query    -graph edges.txt -k 3 [...]   one-shot / batch / follow queries
//	tkc serve    -graph edges.txt -addr :8177  HTTP serving layer (see below)
//	tkc snapshot -data dir [-graph edges.txt]  persist/bootstrap a data directory
//	tkc help                                   this text
//
// For compatibility with pre-subcommand invocations, running tkc with
// flags directly (tkc -graph ... -k 3, tail -f s | tkc -follow ...) is
// equivalent to tkc query with the same flags.
//
// Query mode:
//
//	tkc query -graph edges.txt -k 3 -start 0 -end 99999999 [-algo enum|base|otcd] [-count] [-limit 10]
//	tkc query -graph edges.txt -ks 2,3,4,5 -count [-parallel 4]
//	tail -f stream.ndjson | tkc query -follow -k 3 -span 3600 -every 500 [-readers 4] [-cache-mb 64]
//
// The graph file holds "u v t" (or KONECT "u v w t") lines. With -count only
// the number of distinct cores and the total result size are reported; the
// default prints every core's tightest time interval, vertices and edges.
// -ks runs one query per listed k over the same range as a parallel batch
// (Graph.RunBatch) and prints a per-k summary table.
//
// -follow tails a live edge stream from stdin ("u v t" text or NDJSON
// {"u":..,"v":..,"t":..} lines, timestamps non-decreasing), appends it to
// the graph in batches of -every edges, and reports the k-core count over
// the trailing -span raw timestamps after each batch, with the CoreTime
// tables patched incrementally (Graph.Watch) rather than rebuilt. Without
// -graph the first batch bootstraps the graph.
//
// Serve mode exposes the query engine over HTTP — POST /v1/query (chunked
// NDJSON core streams), POST /v1/append (batched edge ingest, one epoch
// published per batch), GET /v1/stats and GET /metrics — with admission
// control, per-request deadlines and graceful shutdown; see the
// "Serving over HTTP" section of the README and cmd/tkcload for the load
// generator that drives it.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tkc: ")

	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "query":
			runQuery(args[1:])
		case "serve":
			runServe(args[1:])
		case "snapshot":
			runSnapshot(args[1:])
		case "help", "-h", "--help":
			usage()
		default:
			log.Printf("unknown subcommand %q", args[0])
			usage()
			os.Exit(2)
		}
		return
	}
	// Legacy invocation: bare flags mean the query subcommand.
	runQuery(args)
}

func usage() { usageTo(os.Stderr) }

func usageTo(w io.Writer) {
	fmt.Fprintf(w, `usage:
  tkc query -graph edges.txt -k 3 [...]    run queries (also: bare "tkc -graph ...")
  tkc serve -graph edges.txt -addr :8177   serve queries over HTTP
  tkc serve -data dir [...]                serve durably: WAL-logged appends,
                                           snapshots, warm restarts
  tkc snapshot -data dir [-graph edges]    persist a snapshot / bootstrap a
                                           data directory from an edge file
  tkc help                                 show this text

Run "tkc query -h", "tkc serve -h" or "tkc snapshot -h" for the full flag
list.

Developing against this repo? scripts/lint.sh runs gofmt, go vet and the
tkcvet invariant analyzers (cmd/tkcvet) — the same gate CI enforces.
`)
}
