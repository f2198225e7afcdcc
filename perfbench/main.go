// Command perfbench is the repository's benchmark of the Verified Prompt
// Programming loop. Each workload runs many whole jobs — one job is one
// repro.Synthesize or repro.Translate call, from start to verdict — as a
// closed loop from a single process with one client, checks every job's
// output independently of the loop that produced it, and prints one JSON
// result as the last line of standard output:
//
//	perfbench --workload notransit-local --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) runs the same jobs in untraced/traced pairs and reports
// the per-layer metrics, including the tracing overhead. See README.md for
// the workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses the arguments, runs the benchmark and prints its result. It
// returns the process exit code: 0 only when a result was printed.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() != 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 0 and --trace 0|1\n",
			workloadNames())
		return 2
	}
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result line plus the human-readable
// lines printed above it — figures that are not part of the result's
// metric set, such as the failed share and the wire bytes of an untraced
// run, and the provenance of the measurement.
type report struct {
	workload string
	result   result
	notes    []note
}

// note is a figure for the human-readable lines only.
type note struct {
	name string
	metric
}

func (r *report) addNote(name string, value float64, unit string) {
	r.notes = append(r.notes, note{name: name, metric: metric{Value: value, Unit: unit}})
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d jobs attempted, %d failed (%s, GOMAXPROCS %d)\n",
		r.workload, r.result.Attempted, r.result.Failed, runtime.Version(), runtime.GOMAXPROCS(0))
	keys := make([]string, 0, len(r.result.Metrics))
	for k := range r.result.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.result.Metrics[k]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %-36s %14.6g %s (not in the result line)\n", n.name, n.Value, n.Unit)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		// Every value is a finite float64 by construction (see set).
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}
