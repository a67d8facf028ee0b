// Package colocate models the multi-tenant scenarios of §VII-E and
// §VII-G: a PARTIES-style application-level resource manager that first
// finds a feasible core/frequency allocation for colocated LC services
// (after which ReTail is layered on top for per-request savings, Fig 13),
// and a batch-job interference injector that perturbs service times to
// exercise ReTail's model-drift detection and online retraining (Fig 14).
package colocate

import (
	"fmt"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/manager"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// Tenant is one colocated LC application with its own worker pool (its
// core allocation from the node-level manager) and load.
type Tenant struct {
	Cal     *core.Calibration
	Workers int
	RPS     float64
	Seed    int64

	Server  *server.Server
	Gen     *workload.Generator
	Lat     *stats.LatencyTracker
	manager manager.Manager
}

// Node hosts multiple tenants on one socket-equivalent power budget. Each
// tenant gets a private server (its partitioned cores); socket power is
// the sum over tenants plus one shared uncore.
type Node struct {
	Tenants []*Tenant
	uncoreW float64
	start   sim.Time
}

// NewNode builds the tenants' servers side by side.
func NewNode(tenants []*Tenant, platform core.Platform) *Node {
	n := &Node{uncoreW: platform.Power.UncoreW}
	for i, t := range tenants {
		pm := platform.Power
		pm.UncoreW = 0 // shared uncore accounted once at node level
		t.Server = server.New(server.Config{
			App:     t.Cal.App,
			Workers: t.Workers,
			Grid:    platform.Grid,
			Power:   pm,
			Trans:   platform.Trans,
			Seed:    platform.Seed + int64(i)*101,
		})
		t.Lat = &stats.LatencyTracker{}
		srv := t.Server
		lat := t.Lat
		srv.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
			lat.Add(float64(r.Sojourn()))
		}
		n.Tenants = append(n.Tenants, t)
	}
	return n
}

// Start attaches the paper's "PARTIES phase": every tenant runs under a
// coarse application-level allocation (all its cores at one frequency that
// meets QoS — conservatively, max frequency) and traffic begins.
func (n *Node) Start(e *sim.Engine) {
	for i, t := range n.Tenants {
		mf := manager.NewMaxFreq()
		mf.Attach(e, t.Server)
		t.manager = mf
		t.Gen = workload.NewGenerator(t.Cal.App, t.RPS, t.Seed+int64(i), t.Server.Submit)
		t.Gen.Start(e)
	}
}

// EnableReTail switches one tenant from the coarse allocation to ReTail's
// per-request management (the paper triggers this during PARTIES'
// downsize phase at t = 5 s in Fig 13).
func (n *Node) EnableReTail(e *sim.Engine, tenantIdx int) (*manager.ReTail, error) {
	if tenantIdx < 0 || tenantIdx >= len(n.Tenants) {
		return nil, fmt.Errorf("colocate: no tenant %d", tenantIdx)
	}
	t := n.Tenants[tenantIdx]
	rt := t.Cal.NewReTail()
	rt.Attach(e, t.Server)
	t.manager = rt
	return rt, nil
}

// ResetEnergy restarts node power accounting.
func (n *Node) ResetEnergy(e *sim.Engine) {
	n.start = e.Now()
	for _, t := range n.Tenants {
		t.Server.Socket.ResetEnergy(e.Now())
	}
}

// PowerW returns instantaneous-average node power since the last reset.
func (n *Node) PowerW(now sim.Time) float64 {
	total := n.uncoreW
	for _, t := range n.Tenants {
		total += t.Server.Socket.AveragePowerW(now)
	}
	return total
}

// Interferer injects the §VII-G batch job: from Start on, every tenant's
// service times inflate by Factor (shared cores and LLC ways are split
// with the batch job).
type Interferer struct {
	Start  sim.Time
	Factor float64
}

// Arm schedules the interference onset on the given servers.
func (iv Interferer) Arm(e *sim.Engine, servers ...*server.Server) {
	for _, s := range servers {
		s := s
		e.At(iv.Start, "colocate.interfere", func(en *sim.Engine) {
			s.SetInterference(en, iv.Factor)
		})
	}
}

// MeanLevel reports the average effective frequency level across a
// server's cores — the "frequency of a core running Moses" trace in
// Fig 14.
func MeanLevel(s *server.Server) float64 {
	sum := 0.0
	for _, c := range s.Socket.Cores {
		sum += float64(c.EffectiveLevel())
	}
	return sum / float64(len(s.Socket.Cores))
}

// GridOf returns the grid used by a server (helper for trace rendering).
func GridOf(s *server.Server) *cpu.Grid { return s.Socket.Cores[0].Grid() }
