package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"retail/internal/live"
	"retail/internal/workload"
)

// Shot is one request of an open-loop schedule and everything the
// generator learned about it: when it was due, when it actually left,
// when its answer came back, and the server's stamps in that answer.
type Shot struct {
	DueNs   int64 // scheduled send time (wall clock, ns)
	SentNs  int64 // actual send time
	RecvNs  int64 // client receive time of the first answer (0 = none)
	Answers int   // answers seen for this ID (exactly 1 is correct)
	Resp    live.Response
}

// Lag is how late the shot left relative to its schedule.
func (s *Shot) Lag() time.Duration { return time.Duration(s.SentNs - s.DueNs) }

// Latency is the client-observed latency timed from the scheduled send.
func (s *Shot) Latency() time.Duration { return time.Duration(s.RecvNs - s.DueNs) }

// Volley is one open-loop send window: a pre-drawn schedule offered over
// a fixed set of connections, never waiting on replies.
type Volley struct {
	Shots []Shot
	// Stray counts answers carrying an ID the generator never sent.
	Stray int
	// Backlog is how many shots were still unanswered when the last one
	// was sent.
	Backlog int
	// ElapsedS is the wall time from the first due send until the last
	// answer arrived (or the drain allowance ran out).
	ElapsedS float64
}

// Generator is the benchmark's open-loop wire client: it sends on an
// absolute schedule, never waits on replies, and keeps every stamp. One
// receiver per connection runs for the generator's whole life, so an
// answer that misses its volley's drain is still read — and counted as
// late — instead of corrupting the next volley's stream.
type Generator struct {
	conns []net.Conn
	wg    sync.WaitGroup

	mu      sync.Mutex
	tag     uint64 // current volley; request IDs are tag<<32 | index
	cur     *Volley
	pending int
	done    chan struct{}
	// Late counts answers that arrived after their volley had closed;
	// Stray counts answers carrying an ID never sent while no volley was
	// open (during a volley they count in Volley.Stray).
	Late, Stray int
}

// NewGenerator dials n connections to addr and starts their receivers.
func NewGenerator(addr string, n int) (*Generator, error) {
	g := &Generator{}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.conns = append(g.conns, c)
		g.wg.Add(1)
		go g.receive(c)
	}
	return g, nil
}

// Close closes the connections and waits for the receivers to end.
func (g *Generator) Close() {
	for _, c := range g.conns {
		c.Close()
	}
	g.wg.Wait()
}

func (g *Generator) receive(conn net.Conn) {
	defer g.wg.Done()
	dec := json.NewDecoder(bufio.NewReaderSize(conn, 64<<10))
	var r live.Response
	for {
		r = live.Response{}
		if err := dec.Decode(&r); err != nil {
			return
		}
		now := time.Now().UnixNano()
		g.mu.Lock()
		tag, idx := r.ID>>32, r.ID&(1<<32-1)
		switch {
		case tag > g.tag && g.cur == nil:
			g.Stray++
		case tag < g.tag || g.cur == nil:
			g.Late++
		case tag > g.tag || idx >= uint64(len(g.cur.Shots)):
			g.cur.Stray++
		default:
			s := &g.cur.Shots[idx]
			s.Answers++
			if s.Answers == 1 {
				s.RecvNs, s.Resp = now, r
				g.pending--
				if g.pending == 0 {
					close(g.done)
				}
			}
		}
		g.mu.Unlock()
	}
}

// Fire sends tr's records as an open-loop schedule starting at a fixed
// lead from now, spread round-robin over the connections, and waits until
// every shot is answered or drain has passed since the last send.
func (g *Generator) Fire(tr *workload.Trace, drain time.Duration) (*Volley, error) {
	v := &Volley{Shots: make([]Shot, len(tr.Records))}
	start := time.Now().Add(5 * time.Millisecond).UnixNano()
	for i := range tr.Records {
		v.Shots[i].DueNs = start + tr.Records[i].ArrivalNs()
	}
	g.mu.Lock()
	g.tag++
	tag, done := g.tag, make(chan struct{})
	g.cur, g.pending, g.done = v, len(v.Shots), done
	if g.pending == 0 {
		close(done)
	}
	g.mu.Unlock()

	errs := make([]error, len(g.conns))
	var wg sync.WaitGroup
	for c, conn := range g.conns {
		wg.Add(1)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			errs[c] = sendShots(conn, tr, v.Shots, tag, c, len(g.conns))
		}(c, conn)
	}
	wg.Wait()
	g.mu.Lock()
	v.Backlog = g.pending
	g.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	select {
	case <-done:
	case <-time.After(drain):
	}
	g.mu.Lock()
	g.cur = nil
	g.mu.Unlock()

	last := int64(0)
	for i := range v.Shots {
		last = max(last, v.Shots[i].RecvNs)
	}
	if last == 0 {
		last = time.Now().UnixNano()
	}
	v.ElapsedS = float64(last-start) / 1e9
	return v, nil
}

// sendShots paces one connection's share of the schedule on absolute due
// times: a late send is never made up by skipping, so the offered rate
// holds, and the lag is recorded per shot.
func sendShots(conn net.Conn, tr *workload.Trace, shots []Shot, tag uint64, first, stride int) error {
	bw := bufio.NewWriterSize(conn, 16<<10)
	enc := json.NewEncoder(bw)
	var req live.Request
	for i := first; i < len(shots); i += stride {
		s := &shots[i]
		if d := time.Until(time.Unix(0, s.DueNs)); d > 0 {
			// Ahead of schedule: push out what is buffered, then wait.
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("flush: %w", err)
			}
			time.Sleep(d)
		}
		rec := &tr.Records[i]
		req.ID, req.GenNs, req.Features, req.Class = tag<<32|uint64(i), s.DueNs, rec.Features, rec.Class
		s.SentNs = time.Now().UnixNano()
		if err := enc.Encode(&req); err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return nil
}
