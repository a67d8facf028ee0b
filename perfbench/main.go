// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints every end-to-end
// metric by name, with its unit, its clock (host wall clock or simulated
// virtual time) and its sample count, then checks the program's outputs.
// With -trace 1 it instead makes a separate traced pass and prints the
// per-layer metrics, the tracing overhead and a span file.
//
//	go run . --workload fleet-steady --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Clock is "host" (wall clock, varies run to run), "sim" (virtual
	// time, fixed per seed) or "count"; N is the sample count behind the
	// figure and Note says what it means on this workload. Neither is
	// part of the JSON result line.
	Clock string `json:"-"`
	N     int    `json:"-"`
	Note  string `json:"-"`
}

// Metrics maps metric names to figures.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, unit, clock string, n int, note string) {
	m[name] = Metric{Value: v, Unit: unit, Clock: clock, N: n, Note: note}
}

// Check is one output-correctness check.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is what one workload run hands back to the reporter.
type Result struct {
	Metrics Metrics
	// Extras are reported on the human-readable lines only: figures the
	// issue names that are too noisy across seeds or host states to gate.
	Extras Metrics
	Checks []Check
	// Outcome tallies every request the run attempted; its failures are
	// the JSON line's "failed".
	Outcome Outcome
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Options are the command-line settings every workload receives.
type Options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// SpanDir is where a traced run writes its span file.
	SpanDir string
}

// deadline returns the end of the measuring window that starts now.
func (o Options) deadline() time.Time {
	return time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
}

type workloadFunc func(Options) (*Result, error)

var workloads = map[string]workloadFunc{
	"fleet-steady":  runFleetSteady,
	"tune-burst":    runTuneBurst,
	"live-loopback": runLiveLoopback,
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-steady, tune-burst or live-loopback")
	seed := flag.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := flag.Float64("seconds", 30, "measuring time")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build/spans", "directory for a traced run's span file")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	opt := Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SpanDir: *spanDir}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d (%s, GOMAXPROCS=%d)\n",
		*name, opt.Seed, opt.Seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0))
	res, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	checkContract(res, opt.Trace)
	os.Exit(report(res))
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(ms Metrics, tag string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Printf("  %-34s %14.6g %-6s [%s%s%s] %s\n", n, m.Value, m.Unit, tag, m.Clock, samples, m.Note)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable table and the JSON result line and
// returns the exit code: 0 when every check passed.
func report(res *Result) int {
	printMetrics(res.Metrics, "")
	printMetrics(res.Extras, "ungated, ")
	correct := true
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict, correct = "FAIL", false
		}
		fmt.Printf("  check %s %s: %s\n", verdict, c.Name, c.Detail)
	}
	o := res.Outcome
	fmt.Printf("  requests attempted=%d failed=%d fail_frac=%.6g missed=%d miss_frac=%.6g\n",
		o.Attempted, o.Failed(), o.FailFrac(), o.Missed(), o.MissFrac())
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   Metrics `json:"metrics"`
	}{correct && o.Attempted > 0, o.Attempted, o.Failed(), res.Metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
