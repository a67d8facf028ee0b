// Smoke test: build every example and command, then execute each with a
// tiny workload. This is the "does the repo still run end-to-end" gate —
// it catches broken flag parsing, panics on startup and bit-rotted
// example code that unit tests never touch. Skipped under -short.
package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// smokeTargets lists every main package with the arguments that give the
// fastest meaningful run (measured well under 10 s each).
var smokeTargets = []struct {
	pkg  string // package path relative to the module root
	args []string
}{
	{"./examples/quickstart", nil},
	{"./examples/colocation", nil},
	{"./examples/database", nil},
	{"./examples/multitier", nil},
	{"./examples/replay", nil},
	{"./examples/websearch", nil},
	{"./cmd/retail-sim", []string{"-workers", "4", "-duration", "2", "-samples", "200"}},
	// The cohort-spec path of the CLI's shared run-input loader.
	{"./cmd/retail-sim", []string{"-spec", "steady-poisson", "-workers", "4", "-duration", "1", "-samples", "200"}},
	{"./cmd/retail-characterize", []string{"-quick"}},
	{"./cmd/retail-bench", []string{"-list"}},
	// Exercises the full wall-clock path including the Prometheus
	// exposition server (bound to an ephemeral port).
	{"./cmd/retail-live", []string{
		"-rps", "200", "-duration", "500ms", "-metrics-addr", "127.0.0.1:0",
	}},
	// Replays a compressed fault plan against the live runtime: injector,
	// degradation machinery and the report path all run end-to-end.
	{"./cmd/retail-chaos", []string{
		"-plan", "overload-burst", "-seconds", "4", "-scale", "0.25", "-samples", "200",
	}},
	// A two-dispatcher, one-policy fleet sweep at quick scale: the whole
	// cluster layer (routing, per-node managers, sweep merge) end-to-end.
	{"./cmd/retail-cluster", []string{
		"-quick", "-loads", "0.5", "-policies", "retail",
		"-dispatchers", "round-robin,global-jsq", "-requests", "1200",
	}},
	// The open-loop wire generator against its in-process no-op server,
	// once per schedule source: a lazily drawn Poisson stream, then a
	// cohort spec pre-drawn into a trace schedule.
	{"./cmd/retail-loadgen", []string{"-selfhost", "-rps", "2000", "-duration", "300ms"}},
	{"./cmd/retail-loadgen", []string{"-selfhost", "-spec", "steady-poisson", "-duration", "300ms"}},
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs every binary")
	}
	bindir := t.TempDir()
	for i, tgt := range smokeTargets {
		tgt := tgt
		name := filepath.Base(tgt.pkg)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// One binary per entry: a package listed twice must not race
			// two builds onto one path.
			bin := filepath.Join(bindir, fmt.Sprintf("%s-%d", name, i))
			build := exec.Command("go", "build", "-o", bin, tgt.pkg)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build %s: %v\n%s", tgt.pkg, err, out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, tgt.args...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", name, tgt.args, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", name)
			}
		})
	}
}
