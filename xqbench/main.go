// Command xqbench is the end-to-end and per-layer benchmark of xqview.
//
// It drives the engine from outside — through the public xqview API and the
// cmd/xqview binary over HTTP — on seeded workloads, checks that every
// output is correct, and prints one JSON result as its last line of output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is split into an untraced and a traced half and the metrics are the
// per-layer ones, derived from spans the benchmark records around its calls
// into each layer. Run it through run.sh, which builds both programs first;
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// result is one run's outcome. mismatch is the first wrong output found.
type result struct {
	attempted, failed int
	metrics           metrics
	mismatch          error
}

func main() {
	code := run(os.Args[1:])
	killServers()
	os.Exit(code)
}

func run(args []string) int {
	fs := flag.NewFlagSet("xqbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: point-update, join-views or http-read")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	bin := fs.String("bin", "", "xqview binary (http-read)")
	workdir := fs.String("workdir", ".bench_build", "directory for server inputs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "xqbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// A signal stops the servers before the process goes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killServers()
		os.Exit(130)
	}()

	in, err := makeInputs(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		return 2
	}
	spans := filepath.Join(*workdir, "spans-"+*workload+".json")
	window := time.Duration(*seconds * float64(time.Second))

	var res *result
	if *workload == wHTTPRead {
		if *bin == "" {
			fmt.Fprintln(os.Stderr, "xqbench: http-read needs -bin (the xqview binary)")
			return 2
		}
		res, err = runHTTPRead(in, *bin, *workdir, window, *trace == 1, spans)
	} else {
		res, err = runInproc(in, window, *trace == 1, spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		return 1
	}
	out, err := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"config": dbConfig(),
	})
	if err == nil {
		fmt.Println(string(out))
	}
	if res.mismatch != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", res.mismatch)
	}
	out, err = json.Marshal(map[string]any{
		"correct":   res.mismatch == nil,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if res.mismatch != nil {
		return 1
	}
	return 0
}
