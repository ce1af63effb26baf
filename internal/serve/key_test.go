package serve

import (
	"context"
	"testing"
	"time"
)

// TestKeyGolden pins the exact key strings produced for fixed payloads.
// The key preimage folds in store.FormatVersion, so these literals break —
// loudly, as a golden diff — if anyone bumps the format version or changes
// the preimage layout without meaning to. An intentional bump updates the
// literals here in the same change, which is exactly the review surface we
// want: key migration is a decision, not an accident.
func TestKeyGolden(t *testing.T) {
	type payload struct {
		Workload string `json:"workload"`
		InOrder  bool   `json:"in_order"`
		Policy   string `json:"policy"`
	}
	cases := []struct {
		kind    string
		payload any
		want    string
	}{
		{"sweep-cell", payload{Workload: "ptrchase", Policy: "OoO"}, "sweep-cell:ee99a26ebba7eecac6f84c9734d75a01"},
		{"sweep-cell", payload{Workload: "ptrchase", Policy: "Permissive"}, "sweep-cell:7764b90792ae6bcd3ba901436c980451"},
		{"sweep-cell", payload{Workload: "ptrchase", InOrder: true}, "sweep-cell:81bac65a42ddd439e1ebfd4c3d586525"},
		{"attack-cell", payload{Workload: "spectre-v1", Policy: "OoO"}, "attack-cell:1c824e5bfa187820ae1efa2fd907708a"},
		{"gadget", struct {
			Program string `json:"program"`
			Window  int    `json:"window"`
		}{"leak_loop", 8}, "gadget:9be0a570eb5b0ce4984572f3124a2c89"},
	}
	for _, c := range cases {
		if got := Key(c.kind, c.payload); got != c.want {
			t.Errorf("Key(%q, %+v)\n  got  %s\n  want %s", c.kind, c.payload, got, c.want)
		}
	}
}

// TestKeyDistinguishes proves the properties the golden pins rely on: the
// kind tag and every payload field participate in the hash, and equal
// inputs collide (that collision is the whole caching scheme).
func TestKeyDistinguishes(t *testing.T) {
	type p struct{ A, B string }
	base := Key("k", p{"x", "y"})
	if Key("k", p{"x", "y"}) != base {
		t.Fatal("identical inputs produced different keys")
	}
	for name, other := range map[string]string{
		"kind":  Key("k2", p{"x", "y"}),
		"field": Key("k", p{"x", "z"}),
	} {
		if other == base {
			t.Fatalf("changing %s did not change the key", name)
		}
	}
}

// TestKeyGoldenRealCells pins the key strings production code derives for
// one real cell of each kind, observed end to end: the cells run through
// the public submit path and the test checks that exactly these keys are
// resident in the result cache afterwards. TestKeyGolden only pins the
// hash over synthetic payloads; this test catches a reordered or retyped
// key struct, a changed kind tag, or a config field leaking into (or
// dropping out of) a preimage — any of which would silently orphan every
// persisted store entry without a store.FormatVersion bump.
func TestKeyGoldenRealCells(t *testing.T) {
	m := NewManager(Config{QueueDepth: 8, JobWorkers: 1, SimWorkers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	run := func(j *Job, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.State != JobDone {
			t.Fatalf("%s job ended %s: %s", st.Kind, st.State, st.Error)
		}
	}
	// exchange2 under OoO and on the in-order core, quick sampling.
	run(m.SubmitSweep(SweepRequest{Workloads: []string{"exchange2"}, Policies: []string{"OoO"}, Sampling: SamplingSpec{Quick: true}}))
	// spectre-v1-cache under OoO with the manager's default ooo.DefaultParams().
	run(m.SubmitAttack(AttackRequest{Attacks: []string{"spectre-v1-cache"}, Policies: []string{"OoO"}, NoInOrder: true}))
	run(m.SubmitGadgets(GadgetsRequest{Programs: []string{"meltdown"}}))

	want := []string{
		"sweep-cell:69fede98c7b9e5ff248434662ad29a58",  // exchange2 / OoO, quick
		"sweep-cell:f32619419dba2654f5795f4c753d3a8c",  // exchange2 / in-order, quick
		"attack-cell:b405738c26845d26c7678aa75e7bc87c", // spectre-v1-cache / OoO
		"gadget:6c5f0ac8dc24149ec89ce6e3ae1b82d5",      // meltdown census entry
	}
	for _, k := range want {
		if !m.Cache().Contains(k) {
			t.Errorf("cache does not hold golden key %s", k)
		}
	}
	if got := m.Cache().Len(); got != len(want) {
		t.Errorf("cache holds %d entries, want exactly the %d golden keys", got, len(want))
	}
}
