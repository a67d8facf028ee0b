package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"retail/internal/workload"
)

// writeTrace records a steady-poisson (moses) stream, lets edit bend it
// and writes it into dir.
func writeTrace(t *testing.T, dir, name string, edit func(*workload.Trace)) string {
	t.Helper()
	tr := workload.RecordTrace(workload.BuiltinSpec("steady-poisson"), 1, 1)
	edit(tr)
	tr.Header.Records = len(tr.Records)
	path := filepath.Join(dir, name)
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func load(t *testing.T, args ...string) (*Inputs, *Run, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	in := Declare("test", fs, Workload|Params|Report)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	run, err := in.Load()
	return in, run, err
}

func TestLoadRunInputRules(t *testing.T) {
	dir := t.TempDir()
	good := writeTrace(t, dir, "good.trace", func(*workload.Trace) {})
	empty := writeTrace(t, dir, "empty.trace", func(tr *workload.Trace) { tr.Records = nil })
	twoApps := writeTrace(t, dir, "two.trace", func(tr *workload.Trace) { tr.Header.Apps = []string{"moses", "xapian"} })
	unknown := writeTrace(t, dir, "unknown.trace", func(tr *workload.Trace) { tr.Header.Apps = []string{"no-such-app"} })
	badParams := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badParams, []byte(`{"no_such_knob": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		args    []string
		app     string // resolved app on success
		wantErr string // substring of the error; empty = success
	}{
		{"defaults", nil, "xapian", ""},
		{"explicit app", []string{"-app", "silo"}, "silo", ""},
		{"spec names its app", []string{"-spec", "steady-poisson"}, "moses", ""},
		{"spec agrees with app", []string{"-app", "moses", "-spec", "steady-poisson"}, "moses", ""},
		{"replay names its app", []string{"-replay", good}, "moses", ""},
		{"spec with replay", []string{"-spec", "steady-poisson", "-replay", good}, "", "mutually exclusive"},
		{"record without spec", []string{"-record", filepath.Join(dir, "out.trace")}, "", "-record requires -spec"},
		{"app conflicts with spec", []string{"-app", "silo", "-spec", "steady-poisson"}, "", `targets app "moses" but -app is "silo"`},
		{"app conflicts with replay", []string{"-app", "silo", "-replay", good}, "", `targets app "moses" but -app is "silo"`},
		{"unknown app", []string{"-app", "no-such-app"}, "", "unknown -app"},
		{"unknown spec", []string{"-spec", filepath.Join(dir, "missing.json")}, "", "missing.json"},
		{"replay with no records", []string{"-replay", empty}, "", "no records"},
		{"replay covering two apps", []string{"-replay", twoApps}, "", "covers apps"},
		{"replay naming unknown app", []string{"-replay", unknown}, "", "unknown"},
		{"malformed params", []string{"-params", badParams}, "", "no_such_knob"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, run, err := load(t, tc.args...)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			case tc.wantErr == "" && run.App.Name() != tc.app:
				t.Fatalf("app = %s, want %s", run.App.Name(), tc.app)
			}
		})
	}
}

// TestRecordingRoundTrip: a recording written through WriteRecording
// loads back as -replay with the same canonical SHA and carries the
// writer's provenance.
func TestRecordingRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	in, run, err := load(t, "-spec", "steady-poisson", "-record", path)
	if err != nil {
		t.Fatal(err)
	}
	sha, err := in.WriteRecording(workload.RecordTrace(run.Spec, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, back, err := load(t, "-replay", path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := back.Replay.SHA(); err != nil || got != sha {
		t.Fatalf("replayed SHA = %s (%v), recorded %s", got, err, sha)
	}
	if back.Replay.Header.Provenance == (workload.TraceProvenance{}) {
		t.Fatal("recording carries no provenance")
	}
	if back.App.Name() != run.App.Name() {
		t.Fatalf("replay app %s, recorded %s", back.App.Name(), run.App.Name())
	}
}

func TestGiven(t *testing.T) {
	in, _, err := load(t, "-app", "xapian")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Given("app") || in.Given("spec") {
		t.Fatalf("Given(app) = %v, Given(spec) = %v; want true, false", in.Given("app"), in.Given("spec"))
	}
}
