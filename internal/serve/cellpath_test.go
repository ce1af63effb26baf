package serve

import (
	"reflect"
	"testing"

	"nda/internal/ooo"
)

// TestCellPathsAgree: a job task and the worker-side POST /v1/cell path
// build the same tuple into the same cell — the same cache key, the same
// request shipped to a fleet worker, and the same compute inputs. In
// particular a checkpointed sweep cell computes with Workers=1 on both
// paths: cells already saturate the pool, so a fleet worker must not fan
// each cell's samples out over every CPU as well.
func TestCellPathsAgree(t *testing.T) {
	params := ooo.DefaultParams()
	sampling := SamplingSpec{Quick: true, Checkpoints: true}
	sweep, err := SweepRequest{Workloads: []string{"exchange2"}, Policies: []string{"Strict"}, Sampling: sampling}.task(params)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := AttackRequest{Attacks: []string{"meltdown"}, Policies: []string{"Strict"}}.task(params)
	if err != nil {
		t.Fatal(err)
	}
	census, err := GadgetsRequest{Programs: []string{"meltdown"}}.task(params)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		job  cell
		req  CellRequest
	}{
		{"sweep", sweep.cells[0], CellRequest{Kind: "sweep", Workload: "exchange2", Policy: "Strict", Sampling: sampling}},
		{"sweep in-order", sweep.cells[1], CellRequest{Kind: "sweep", Workload: "exchange2", InOrder: true, Sampling: sampling}},
		{"attack", matrix.cells[0], CellRequest{Kind: "attack", Attack: "meltdown", Policy: "Strict"}},
		{"attack in-order", matrix.cells[1], CellRequest{Kind: "attack", Attack: "meltdown", InOrder: true}},
		{"gadget", census.cells[0], CellRequest{Kind: "gadget", Program: "meltdown"}},
	}
	for _, c := range cases {
		got, err := c.req.cell(params)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.key != c.job.key {
			t.Errorf("%s: key %s on /v1/cell, %s in a job", c.name, got.key, c.job.key)
		}
		if got.req != c.job.req || got.req != c.req {
			t.Errorf("%s: request %+v on /v1/cell, %+v in a job, want %+v", c.name, got.req, c.job.req, c.req)
		}
		if !reflect.DeepEqual(got.cfg, c.job.cfg) || !reflect.DeepEqual(got.pol, c.job.pol) || got.params != c.job.params || got.spec.Name != c.job.spec.Name {
			t.Errorf("%s: compute inputs differ between /v1/cell and a job", c.name)
		}
	}
	for _, c := range sweep.cells {
		if c.cfg.Workers != 1 {
			t.Errorf("sweep cell computes with Workers=%d, want 1", c.cfg.Workers)
		}
	}
}
