package telemetry

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", L("app", "xapian"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) → same instrument.
	if c2 := r.Counter("reqs_total", "requests", L("app", "xapian")); c2 != c {
		t.Fatal("get-or-create returned a different counter for identical labels")
	}
	// Different label value → different instrument.
	if c3 := r.Counter("reqs_total", "requests", L("app", "moses")); c3 == c {
		t.Fatal("distinct label values must yield distinct counters")
	}

	g := r.Gauge("queue_depth", "depth")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	g.Add(0.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestRegistrySchemaViolationsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "m")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("kind change", func() { r.Gauge("m_total", "m") })
	mustPanic("label schema change", func() { r.Counter("m_total", "m", L("app", "x")) })
	mustPanic("bad metric name", func() { r.Counter("bad name", "m") })
	mustPanic("bad label name", func() { r.Counter("ok_total", "m", L("bad-label", "x")) })
}

func TestConcurrentRecordingIsRaceClean(t *testing.T) {
	// Meaningful under -race: hammer one counter, one gauge and one
	// histogram from many goroutines while a reader snapshots.
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	g := r.Gauge("level", "")
	h := r.Histogram("lat_seconds", "")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(rng.ExpFloat64() * 1e-3)
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot()
			var sb strings.Builder
			_ = r.WriteText(&sb)
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("retail_requests_total", "completed requests", L("app", "xapian")).Add(7)
	r.Gauge("retail_qos_prime_seconds", "internal latency target", L("app", "xapian")).Set(0.0075)
	h := r.Histogram("retail_request_sojourn_seconds", "end-to-end latency", L("app", `we"ird\x`))
	h.Observe(0.001)
	h.Observe(0.002)
	h.Observe(0.010)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE retail_requests_total counter",
		`retail_requests_total{app="xapian"} 7`,
		"# TYPE retail_qos_prime_seconds gauge",
		`retail_qos_prime_seconds{app="xapian"} 0.0075`,
		"# TYPE retail_request_sojourn_seconds histogram",
		`le="+Inf"} 3`,
		`retail_request_sojourn_seconds_count{app="we\"ird\\x"} 3`,
		`retail_request_sojourn_seconds_sum{app="we\"ird\\x"} 0.013`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be ascending and end at Count.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "retail_request_sojourn_seconds_bucket") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		n, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count in %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative: %d after %d", n, last)
		}
		last = n
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", last)
	}
}

func TestHandlerServesMetricsAndHealthz(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content-type = %q, want exposition v0.0.4", ct)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	r := NewRegistry()
	hs, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + hs.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNilInstrumentsDiscard: updates to nil instruments (a runtime with
// metrics off) are no-ops, including a zero Completions set.
func TestNilInstrumentsDiscard(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(2)
	var g *Gauge
	g.Set(1)
	g.Add(1)
	var h *Histogram
	h.Observe(1)
	var cs Completions
	cs.Observe(1, 0.5, 3)
}

// TestCompletionsObserve: one completion lands in every family of the
// set, and a sojourn past the QoS target counts as a violation.
func TestCompletionsObserve(t *testing.T) {
	reg := NewRegistry()
	cs := NewCompletions(reg, 3, 0.010, L("app", "a"))
	cs.Observe(0.004, 0.002, 1)
	cs.Observe(0.020, 0.015, 2)
	cs.Observe(0.001, 0.001, 7) // level outside the grid: not a residency
	if got := cs.Completed.Value(); got != 3 {
		t.Fatalf("completed = %d, want 3", got)
	}
	if got := cs.Violations.Value(); got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
	if got := cs.Residency[1].Value() + cs.Residency[2].Value(); got != 2 {
		t.Fatalf("residency = %d, want 2", got)
	}
	if got := reg.Counter(MetricRequestsTotal, "", L("app", "a")).Value(); got != 3 {
		t.Fatalf("registry counter = %d, want the set's own 3", got)
	}
}
