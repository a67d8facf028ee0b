package main

import (
	"testing"

	"retail/internal/experiments"
)

// TestApplyQuickKeepsExplicitFlags: -quick shrinks only the fleet sizes
// the user left at their defaults.
func TestApplyQuickKeepsExplicitFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		given map[string]bool
		want  experiments.FleetOptions
	}{
		{"nothing set", nil, experiments.FleetOptions{Nodes: 4, WorkersPerNode: 2, RequestsPerCell: 2500}},
		{"requests set", map[string]bool{"requests": true}, experiments.FleetOptions{Nodes: 4, WorkersPerNode: 2, RequestsPerCell: 500}},
		{"all set", map[string]bool{"nodes": true, "workers": true, "requests": true},
			experiments.FleetOptions{Nodes: 16, WorkersPerNode: 8, RequestsPerCell: 500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := experiments.FleetOptions{Nodes: 16, WorkersPerNode: 8, RequestsPerCell: 500}
			applyQuick(&opt, func(name string) bool { return tc.given[name] })
			if opt.Nodes != tc.want.Nodes || opt.WorkersPerNode != tc.want.WorkersPerNode || opt.RequestsPerCell != tc.want.RequestsPerCell {
				t.Fatalf("got nodes=%d workers=%d requests=%d, want %d/%d/%d",
					opt.Nodes, opt.WorkersPerNode, opt.RequestsPerCell,
					tc.want.Nodes, tc.want.WorkersPerNode, tc.want.RequestsPerCell)
			}
		})
	}
}
