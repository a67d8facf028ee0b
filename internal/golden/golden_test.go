package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fatalTB records the first fatal message and stops Check by panicking,
// standing in for the runtime.Goexit of a real *testing.T.
type fatalTB struct {
	testing.TB
	msg string
}

type stop struct{}

func (f *fatalTB) Helper() {}
func (f *fatalTB) Fatal(args ...any) {
	f.msg = fmt.Sprint(args...)
	panic(stop{})
}
func (f *fatalTB) Fatalf(format string, args ...any) {
	f.msg = fmt.Sprintf(format, args...)
	panic(stop{})
}

func check(path string, got string) (msg string) {
	f := &fatalTB{}
	defer func() {
		if r := recover(); r != nil && r != (stop{}) {
			panic(r)
		}
		msg = f.msg
	}()
	Check(f, path, []byte(got))
	return ""
}

func TestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(path, []byte("alpha\nbravo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := check(path, "alpha\nbravo\n"); msg != "" {
		t.Fatalf("identical bytes failed: %s", msg)
	}
	for got, want := range map[string]string{
		"alpha\nbrave\n":        "at byte 10, line 2",
		"alpha\nbravo\nextra\n": "at byte 12, line 3 (got 18 bytes, want 12)",
		"alpha\n":               "at byte 6, line 2 (got 6 bytes, want 12)",
	} {
		if msg := check(path, got); !strings.Contains(msg, want) {
			t.Errorf("Check(%q) = %q, want it to contain %q", got, msg, want)
		}
	}
	if msg := check(filepath.Join(t.TempDir(), "missing.txt"), "x"); !strings.Contains(msg, "-update") {
		t.Errorf("missing golden: %q does not point at -update", msg)
	}
}
