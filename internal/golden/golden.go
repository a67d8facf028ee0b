// Package golden compares test output against committed golden files.
// One -update flag, registered here for every test binary that imports
// the package, rewrites the files instead of comparing:
//
//	go test ./internal/experiments -run TestChaosSimGolden -update
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// contextBytes is how many bytes either side of the first divergence a
// failure message quotes.
const contextBytes = 60

// Check fails t unless got equals the bytes of the golden file at path.
// The failure names the first differing byte and line and quotes both
// sides around it. Under -update, Check writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	line := 1 + bytes.Count(got[:at], []byte("\n"))
	t.Fatalf("%s: output diverges from golden at byte %d, line %d (got %d bytes, want %d):\n got …%q…\nwant …%q…\n(run with -update after an intentional change)",
		path, at, line, len(got), len(want), window(got, at), window(want, at))
}

// window returns b's bytes within contextBytes of offset at.
func window(b []byte, at int) []byte {
	return b[max(at-contextBytes, 0):min(at+contextBytes, len(b))]
}
