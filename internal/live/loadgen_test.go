package live

import (
	"runtime"
	"testing"
	"time"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/workload"
)

// saturationServer is a live server tuned so the transport, not the
// policy, is the bottleneck: no-op executor, constant predictor, QoS
// loose enough that nothing is shed or deadline-dropped.
func saturationServer(t *testing.T, workers int) *Server {
	t.Helper()
	grid := cpu.DefaultGrid()
	srv, err := NewServer(ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   workers,
		QoS:       workload.QoS{Latency: 10, Percentile: 99},
		Predictor: constPredictor(1e-6),
		Backend:   NewMockBackend(grid),
		Exec:      func(Request, cpu.Level) {},
		// Head-only decisions keep Alg1 O(levels) however deep the
		// backlog; full-queue mode is O(queue) per decision, which under
		// deliberate overload turns quadratic and measures the policy,
		// not the transport this smoke targets.
		Params:  policy.Params{Alg1: policy.Alg1Params{HeadOnly: true}},
		AppName: "loadgen-smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestOpenLoopSaturation is the loopback smoke for the open-loop
// generator: offered load north of 100k RPS must actually leave the
// client (SentRPS is generator-side, so a slow server cannot fake this),
// and every request must be answered before the drain expires.
func TestOpenLoopSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation smoke needs wall-clock seconds")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the path 5-10x; the smoke measures throughput")
	}
	srv := saturationServer(t, runtime.NumCPU())

	res, err := RunLoad(LoadConfig{
		Addr:     srv.Addr(),
		App:      workload.NewMasstree(),
		RPS:      140000,
		Conns:    12,
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Report())

	if res.SentRPS < 100000 {
		t.Errorf("generator sustained %.0f RPS, want >= 100000", res.SentRPS)
	}
	if res.Unanswered != 0 {
		t.Errorf("%d of %d requests unanswered after drain", res.Unanswered, res.Sent)
	}
	if res.Dropped != 0 {
		t.Errorf("%d drops with admission control off", res.Dropped)
	}
	if res.Completed == 0 || res.Latency.Count() != int64(res.Completed) {
		t.Errorf("latency count %d != completed %d", res.Latency.Count(), res.Completed)
	}
	if res.Latency.Quantile(0.5) <= 0 {
		t.Error("p50 latency is zero — GenNs echo is broken")
	}
}

// TestOpenLoopAccounting runs a small exact-count pass: modest rate, one
// connection, and checks the ledger adds up and the report renders.
func TestOpenLoopAccounting(t *testing.T) {
	srv := saturationServer(t, 2)

	res, err := RunLoad(LoadConfig{
		Addr:     srv.Addr(),
		App:      workload.NewXapian(),
		RPS:      400,
		Conns:    1,
		Duration: 500 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Completed != res.Sent {
		t.Errorf("completed %d != sent %d (dropped %d, unanswered %d)",
			res.Completed, res.Sent, res.Dropped, res.Unanswered)
	}
	if got := res.Report(); len(got) == 0 {
		t.Error("empty report")
	}
}

// TestRunLoadValidation: config errors surface before any dial.
func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", RPS: 100, Duration: time.Second}); err == nil {
		t.Error("nil App accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", App: workload.NewXapian(), Duration: time.Second}); err == nil {
		t.Error("zero RPS accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", Trace: &workload.Trace{}}); err == nil {
		t.Error("empty Trace accepted")
	}
}

// TestTraceScheduledLoad runs the generator from a trace schedule: the
// builtin slo-mix spec's three SLO classes, pre-drawn at a modest rate.
// Every record must be sent and answered exactly once, the per-class
// tallies must add up to the totals, and each response must land in its
// record's class.
func TestTraceScheduledLoad(t *testing.T) {
	spec, err := workload.LoadSpec("slo-mix")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.RecordTrace(spec.ScaledTo(2000), 3, 0.5)
	if len(tr.Header.Classes) != 3 {
		t.Fatalf("slo-mix trace has classes %v, want 3", tr.Header.Classes)
	}
	perClass := make([]int, len(tr.Header.Classes))
	for i, rec := range tr.Records {
		perClass[rec.Class]++
		if got := classOf(tr, uint64(i)+1); got != int(rec.Class) {
			t.Fatalf("response to record %d attributed to class %d, want %d", i, got, rec.Class)
		}
	}
	if classOf(tr, 0) != -1 || classOf(tr, uint64(len(tr.Records))+1) != -1 || classOf(nil, 1) != -1 {
		t.Fatal("an ID naming no record was attributed to a class")
	}

	srv := saturationServer(t, 2)
	res, err := RunLoad(LoadConfig{Addr: srv.Addr(), Trace: tr, Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Report())
	if res.Sent != len(tr.Records) {
		t.Fatalf("sent %d of %d records", res.Sent, len(tr.Records))
	}
	if res.Unanswered != 0 || res.Completed+res.Dropped != res.Sent {
		t.Fatalf("completed %d + dropped %d != sent %d (unanswered %d)",
			res.Completed, res.Dropped, res.Sent, res.Unanswered)
	}
	if len(res.Classes) != len(perClass) {
		t.Fatalf("%d class tallies, want %d", len(res.Classes), len(perClass))
	}
	var completed, dropped int
	for i := range res.Classes {
		c := &res.Classes[i]
		if c.Class != tr.Header.Classes[i] {
			t.Errorf("class %d named %q, want %q", i, c.Class, tr.Header.Classes[i])
		}
		if c.Completed+c.Dropped != perClass[i] {
			t.Errorf("class %s answered %d, its records number %d", c.Class, c.Completed+c.Dropped, perClass[i])
		}
		if c.Latency.Count() != int64(c.Completed) {
			t.Errorf("class %s latency count %d != completed %d", c.Class, c.Latency.Count(), c.Completed)
		}
		completed += c.Completed
		dropped += c.Dropped
	}
	if completed != res.Completed || dropped != res.Dropped {
		t.Errorf("per-class completed %d / dropped %d, totals %d / %d", completed, dropped, res.Completed, res.Dropped)
	}
}

// TestClientConnectionLoss: when the server goes away mid-run, RunClient
// must stop sending and report the failure, not return a clean result
// (or block forever once its send queue fills).
func TestClientConnectionLoss(t *testing.T) {
	srv := saturationServer(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(ClientConfig{
			Addr: srv.Addr(), App: workload.NewMasstree(),
			RPS: 2000, Duration: 30 * time.Second, Conns: 2, Seed: 1,
		})
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunClient returned no error after the server closed its connections")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunClient still running 5s after the server closed its connections")
	}
}
