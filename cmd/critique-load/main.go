// Command critique-load is the serve API's load generator: it replays a
// population of conformance-generator programs — one cold pass, then
// repeat passes — against critique-serve (or a self-hosted in-process
// server) with concurrent client workers, and records p50/p99 latency
// for cold runs and cache hits, throughput, and hit rate into a BENCH
// JSON document (schema v3 extension, BENCH_PR9.json in the repo). By
// default it replays the same traffic a second time against machine
// "direct" — the cycle-free oracle backend — and records that pass's
// percentiles next to the cycle-accurate ones (-direct-pass=false skips).
//
// Usage:
//
//	critique-load -out BENCH_PR9.json            # self-hosted server
//	critique-load -addr http://localhost:8091    # running server
//	critique-load -programs 64 -repeats 9 -concurrency 16 -machine ttda
//	critique-load -check   # exit 1 unless repeat hit rate >= 0.9 and
//	                       # cold p99 >= 10x hit p99
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/serve"
)

// benchSchemaVersion matches critique-bench's BENCH JSON layout family;
// schema v3 adds the serve_load_direct section (the cycle-free oracle
// backend's pass) next to the cycle-accurate serve_load numbers.
const benchSchemaVersion = 3

// benchDoc is the written document.
type benchDoc struct {
	SchemaVersion int               `json:"schema_version"`
	CodeVersion   string            `json:"code_version"`
	GoMaxProcs    int               `json:"gomaxprocs"`
	ServeLoad     *serve.LoadReport `json:"serve_load"`
	// ServeLoadDirect is the same traffic replayed against machine
	// "direct": result-only serving with no cycle model, the p50/p99
	// every cycle-accurate number is read against.
	ServeLoadDirect *serve.LoadReport `json:"serve_load_direct,omitempty"`
}

func main() {
	addr := flag.String("addr", "", "target server URL (empty = self-host an in-process server)")
	programs := flag.Int("programs", 64, "distinct conformance-generator programs")
	repeats := flag.Int("repeats", 9, "replay passes over the program set after the cold pass")
	concurrency := flag.Int("concurrency", 16, "concurrent client workers")
	machine := flag.String("machine", "ttda", "machine the traffic targets")
	config := flag.String("config", "", `machine config attached to every request, as JSON (e.g. '{"pes":16,"net_latency":8}')`)
	argScale := flag.Int64("arg-scale", 1, "multiply each minid program's entry argument (longer cold simulations)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "self-hosted server's worker slots")
	out := flag.String("out", "", "write the BENCH JSON document to this file")
	check := flag.Bool("check", false, "exit nonzero unless repeat hit rate >= 0.9 and cold p99 >= 10x hit p99")
	directPass := flag.Bool("direct-pass", true, "also replay the same traffic against machine \"direct\" and record its p50/p99")
	flag.Parse()

	var cfg *serve.Config
	if *config != "" {
		cfg = &serve.Config{}
		if err := json.Unmarshal([]byte(*config), cfg); err != nil {
			fmt.Fprintln(os.Stderr, "critique-load: -config:", err)
			os.Exit(1)
		}
	}

	rep, err := serve.RunLoad(serve.LoadOptions{
		URL:         *addr,
		Self:        serve.Options{Workers: *workers, Backlog: *concurrency * 4, Timeout: *timeout},
		Programs:    *programs,
		Repeats:     *repeats,
		Concurrency: *concurrency,
		Machine:     *machine,
		Config:      cfg,
		ArgScale:    *argScale,
		Timeout:     *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "critique-load:", err)
		os.Exit(1)
	}

	fmt.Printf("critique-load: %d requests (%d cold, %d hits, %d coalesced, %d errors) in %.0f ms — %.0f req/s\n",
		rep.Requests, rep.Cold, rep.Hits, rep.Coalesced, rep.Errors, rep.WallMs, rep.ThroughputRPS)
	fmt.Printf("  cold p50/p99 %.3f/%.3f ms, hit p50/p99 %.3f/%.3f ms (cold/hit p99 %.1fx)\n",
		rep.ColdP50Ms, rep.ColdP99Ms, rep.HitP50Ms, rep.HitP99Ms, rep.ColdOverHitP99)
	fmt.Printf("  hit rate %.3f overall, %.3f on repeat traffic\n", rep.HitRate, rep.RepeatHitRate)

	// The direct pass replays the identical program population against the
	// cycle-free oracle backend: same cache, same coalescing, no cycle
	// model. Its cold p50/p99 is what result-only traffic pays.
	var directRep *serve.LoadReport
	if *directPass && *machine != "direct" {
		directRep, err = serve.RunLoad(serve.LoadOptions{
			URL:         *addr,
			Self:        serve.Options{Workers: *workers, Backlog: *concurrency * 4, Timeout: *timeout},
			Programs:    *programs,
			Repeats:     *repeats,
			Concurrency: *concurrency,
			Machine:     "direct",
			ArgScale:    *argScale,
			Timeout:     *timeout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "critique-load: direct pass:", err)
			os.Exit(1)
		}
		fmt.Printf("critique-load [direct]: %d requests (%d errors) — cold p50/p99 %.3f/%.3f ms, hit p50/p99 %.3f/%.3f ms\n",
			directRep.Requests, directRep.Errors, directRep.ColdP50Ms, directRep.ColdP99Ms, directRep.HitP50Ms, directRep.HitP99Ms)
	}

	if *out != "" {
		doc := benchDoc{
			SchemaVersion:   benchSchemaVersion,
			CodeVersion:     buildinfo.CodeVersion(),
			GoMaxProcs:      runtime.GOMAXPROCS(0),
			ServeLoad:       rep,
			ServeLoadDirect: directRep,
		}
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "critique-load:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "critique-load:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "critique-load:", err)
			os.Exit(1)
		}
		fmt.Printf("critique-load: wrote %s\n", *out)
	}

	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "critique-load: %d requests failed\n", rep.Errors)
		os.Exit(1)
	}
	if directRep != nil && directRep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "critique-load: %d direct-pass requests failed\n", directRep.Errors)
		os.Exit(1)
	}
	if *check {
		if rep.RepeatHitRate < 0.9 {
			fmt.Fprintf(os.Stderr, "critique-load: repeat hit rate %.3f < 0.9\n", rep.RepeatHitRate)
			os.Exit(1)
		}
		if rep.ColdOverHitP99 < 10 {
			fmt.Fprintf(os.Stderr, "critique-load: cold p99 only %.1fx hit p99 (< 10x)\n", rep.ColdOverHitP99)
			os.Exit(1)
		}
		fmt.Println("critique-load: check passed")
	}
}
