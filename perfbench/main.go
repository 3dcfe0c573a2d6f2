// Command perfbench is the repository's wall-clock benchmark. It generates
// a seeded web-kind graph, builds the store and engine through the engine's
// own packages, runs one workload for a fixed time, checks every result
// against the serial oracle in internal/algos, and prints one JSON result
// line as the last line of standard output.
//
//	perfbench -workload pagerank-compressed -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics (run_s, setup_s,
// device_s, peak_rss_mb); with -trace 1 it reports the per-layer metrics
// and writes the run's spans under <workdir>/traces. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// maxProcs caps the Go scheduler and the engines' thread counts: every
// workload sets engine threads × shards to this.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 15, "measuring time per run")
	traceFlag := fl.Int("trace", 0, "1 reports per-layer metrics from traced run phases")
	workDir := fl.String("workdir", ".bench_build", "directory for the on-disk store and trace files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	all := specs()
	s, ok := all[*workload]
	if !ok {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *workload, names)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	traced := *traceFlag == 1
	budget := time.Duration(*seconds * float64(time.Second))
	rep, tr, err := measure(s, *seed, budget, traced, *workDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}
	if tr != nil {
		path, err := tr.write(filepath.Join(*workDir, "traces"), s.name, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
