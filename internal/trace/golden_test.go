package trace

import (
	"bytes"
	"path/filepath"
	"testing"

	"retail/internal/golden"
)

// TestChromeTraceGolden pins the Chrome trace export byte-for-byte for a
// fixed-seed simulation: the event sort order, the float formatting and
// the args schema are all part of the contract Perfetto-side tooling
// (and `make trace-check`) relies on. Run with -update after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibrated simulation")
	}
	// Small bounded rings keep the golden file reviewable while still
	// exercising sampling, eviction and the counter track.
	fr, _ := flightRun(t, FlightRecorderConfig{
		Capacity:     48,
		SampleEvery:  4,
		FreqCapacity: 96,
	}, 700, 1.5)

	var got bytes.Buffer
	if err := fr.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}

	golden.Check(t, filepath.Join("testdata", "chrome_golden.json"), got.Bytes())
}

// TestChromeTraceDeterministic double-checks byte stability within one
// process: two identical fixed-seed runs must export identical bytes.
func TestChromeTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two calibrated simulations")
	}
	cfg := FlightRecorderConfig{Capacity: 48, SampleEvery: 4, FreqCapacity: 96}
	var a, b bytes.Buffer
	fr1, _ := flightRun(t, cfg, 700, 1.5)
	if err := fr1.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	fr2, _ := flightRun(t, cfg, 700, 1.5)
	if err := fr2.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical runs exported different chrome traces")
	}
}
