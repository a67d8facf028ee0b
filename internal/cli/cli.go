// Package cli declares, checks, loads and records the run inputs the
// commands share: the app and its workload source (-app, -spec, -record,
// -replay), the policy knobs (-params) and the obs report file
// (-report). Every command that takes one of them accepts it, rejects it
// and fails on it the same way: "<cmd>: <err>" on stderr and exit
// status 2.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/workload"
)

// Set selects which shared flags Declare registers.
type Set uint8

const (
	Workload Set = 1 << iota // -app, -spec, -record, -replay
	Params                   // -params
	Report                   // -report
)

// Inputs holds one command's shared flag values.
type Inputs struct {
	AppName, SpecName, RecordPath, ReplayPath string
	ParamsPath, ReportPath                    string

	cmd string
	fs  *flag.FlagSet
	set Set
}

// Run is what Load resolved from the flags.
type Run struct {
	// App is the workload source's own app, else the command's -app; nil
	// unless the Workload flags are declared.
	App    workload.App
	Spec   *workload.Spec  // -spec, at its own rates
	Replay *workload.Trace // -replay
	Params policy.Params   // -params; DefaultParams when unset
}

// Declare registers the selected flags on fs for the command cmd.
func Declare(cmd string, fs *flag.FlagSet, set Set) *Inputs {
	in := &Inputs{cmd: cmd, fs: fs, set: set}
	if set&Workload != 0 {
		fs.StringVar(&in.AppName, "app", "xapian", "application: "+strings.Join(workload.Names(), ", ")+"; a -spec or -replay source names its own")
		fs.StringVar(&in.SpecName, "spec", "", "cohort workload spec: a builtin name ("+strings.Join(workload.BuiltinSpecNames(), ", ")+") or a JSON file")
		fs.StringVar(&in.RecordPath, "record", "", "record the generated request stream to this v2 trace file (requires -spec)")
		fs.StringVar(&in.ReplayPath, "replay", "", "replay a recorded v2 trace instead of generating load (excludes -spec/-record)")
	}
	if set&Params != 0 {
		fs.StringVar(&in.ParamsPath, "params", "", "serializable policy params JSON (empty = historical defaults)")
	}
	if set&Report != 0 {
		fs.StringVar(&in.ReportPath, "report", "", "file for the versioned obs run report")
	}
	return in
}

// Given reports whether the named flag was set on the command line.
func (in *Inputs) Given(name string) bool {
	given := false
	in.fs.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

// Load checks the flag combinations before touching any file, reads the
// spec, the replay trace and the params, and resolves the app: a workload
// source names its own app, which must agree with an explicit -app.
func (in *Inputs) Load() (*Run, error) {
	if in.SpecName != "" && in.ReplayPath != "" {
		return nil, errors.New("-spec and -replay are mutually exclusive")
	}
	if in.RecordPath != "" && in.SpecName == "" {
		return nil, errors.New("-record requires -spec (only generated streams are recorded)")
	}
	run := &Run{}
	var err error
	if run.Params, err = policy.LoadParams(in.ParamsPath); err != nil {
		return nil, err
	}
	if in.set&Workload == 0 {
		return run, nil
	}
	var source string
	switch {
	case in.SpecName != "":
		source = fmt.Sprintf("-spec %q", in.SpecName)
		if run.Spec, err = workload.LoadSpec(in.SpecName); err == nil {
			run.App, err = run.Spec.SingleApp()
		}
	case in.ReplayPath != "":
		source = fmt.Sprintf("-replay trace %q", in.ReplayPath)
		if run.Replay, err = ReadTrace(in.ReplayPath); err == nil {
			run.App, err = run.Replay.SingleApp()
		}
	}
	if err != nil {
		return nil, err
	}
	switch {
	case run.App == nil:
		if run.App = workload.ByName(in.AppName); run.App == nil {
			return nil, fmt.Errorf("unknown -app %q (known: %s)", in.AppName, strings.Join(workload.Names(), ", "))
		}
	case in.Given("app") && run.App.Name() != in.AppName:
		return nil, fmt.Errorf("%s targets app %q but -app is %q", source, run.App.Name(), in.AppName)
	}
	return run, nil
}

// MustLoad is Load that fails the command on error.
func (in *Inputs) MustLoad() *Run {
	run, err := in.Load()
	if err != nil {
		in.Fail(err)
	}
	return run
}

// Fail prints "<cmd>: <err>" to stderr and exits with status 2.
func (in *Inputs) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", in.cmd, err)
	os.Exit(2)
}

// WriteRecording stamps t with this process's provenance, writes it to
// the -record path and returns its canonical SHA-256.
func (in *Inputs) WriteRecording(t *workload.Trace) (string, error) {
	t.Header.Provenance = workload.TraceProvenance(obs.CollectProvenance())
	if err := t.WriteFile(in.RecordPath); err != nil {
		return "", err
	}
	return t.SHA()
}

// ReadTrace reads a recorded trace and checks that it can drive a run:
// at least one record and exactly one known app.
func ReadTrace(path string) (*workload.Trace, error) {
	t, err := workload.ReadTraceFile(path)
	if err == nil {
		_, err = t.SingleApp()
	}
	if err != nil {
		return nil, fmt.Errorf("trace %q: %w", path, err)
	}
	return t, nil
}
