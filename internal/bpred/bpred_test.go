package bpred

import (
	"slices"
	"testing"
	"testing/quick"
)

// train runs one predict/resolve round the way the core does: the counter is
// trained with the actual outcome, and on a misprediction the speculative
// history bit is repaired (the core does this during the squash).
func train(g *Gshare, pc uint64, outcome bool) (predicted bool) {
	pred, ck := g.Predict(pc)
	g.Update(pc, outcome, ck)
	if pred != outcome {
		g.Restore(ck, outcome)
	}
	return pred
}

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(10)
	pc := uint64(0x1000)
	for i := 0; i < 100; i++ {
		train(g, pc, true)
	}
	taken, _ := g.Predict(pc)
	if !taken {
		t.Error("gshare must learn an always-taken branch")
	}
}

func TestGshareLearnsAlternatingWithHistory(t *testing.T) {
	// A strictly alternating branch is predictable from one bit of global
	// history; train until warm, then expect correct predictions.
	g := NewGshare(12)
	pc := uint64(0x2000)
	outcome := false
	correct := 0
	for i := 0; i < 200; i++ {
		pred := train(g, pc, outcome)
		if i >= 100 && pred == outcome {
			correct++
		}
		outcome = !outcome
	}
	if correct < 95 {
		t.Errorf("alternating branch predicted correctly only %d/100 times", correct)
	}
}

func TestGshareCheckpointRestore(t *testing.T) {
	g := NewGshare(10)
	h0 := g.History()
	_, ck := g.Predict(0x1000)
	if ck != h0 {
		t.Error("checkpoint must capture pre-prediction history")
	}
	g.Predict(0x1004)
	g.Predict(0x1008)
	g.Restore(ck, true)
	if g.History() != (h0<<1)|1 {
		t.Errorf("Restore must re-apply the actual outcome: %b", g.History())
	}
	g.SetHistory(h0)
	if g.History() != h0 {
		t.Error("SetHistory must rewind exactly")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(64, 4)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB must miss")
	}
	b.Update(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("lookup = %#x, %v", tgt, ok)
	}
	b.Update(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Error("update must replace the target")
	}
	if b.Lookups != 3 || b.Hits != 2 {
		t.Errorf("stats: lookups=%d hits=%d", b.Lookups, b.Hits)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	// 16 sets x 4 ways; PCs with identical set index conflict.
	b := NewBTB(64, 4)
	base := uint64(0x1000)
	stride := uint64(16 * 4) // one set stride in bytes (sets indexed by pc>>2)
	for i := uint64(0); i < 5; i++ {
		b.Update(base+i*stride, 0x100+i)
	}
	if _, ok := b.Peek(base); ok {
		t.Error("LRU entry must be evicted after overfilling the set")
	}
	for i := uint64(1); i < 5; i++ {
		if tgt, ok := b.Peek(base + i*stride); !ok || tgt != 0x100+i {
			t.Errorf("entry %d lost: %#x %v", i, tgt, ok)
		}
	}
}

func TestBTBPeekNoStats(t *testing.T) {
	b := NewBTB(64, 4)
	b.Update(0x1000, 0x2000)
	lookups := b.Lookups
	b.Peek(0x1000)
	if b.Lookups != lookups {
		t.Error("Peek must not count as a lookup")
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must underflow")
	}
	r.Push(0x100)
	r.Push(0x200)
	if a, ok := r.Pop(); !ok || a != 0x200 {
		t.Errorf("pop = %#x", a)
	}
	if a, ok := r.Pop(); !ok || a != 0x100 {
		t.Errorf("pop = %#x", a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS must be empty again")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if a, _ := r.Pop(); a != 3 {
		t.Errorf("pop = %d, want 3", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Errorf("pop = %d, want 2", a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("entry 1 was overwritten; stack must be empty")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0xA)
	r.Push(0xB)
	snap := r.Snapshot()
	r.Pop()
	r.Push(0xC)
	r.Push(0xD)
	r.Restore(snap)
	if r.Depth() != 2 {
		t.Fatalf("depth = %d", r.Depth())
	}
	if a, _ := r.Pop(); a != 0xB {
		t.Errorf("post-restore pop = %#x, want 0xB", a)
	}
}

func TestRASSnapshotProperty(t *testing.T) {
	f := func(ops []uint8, addrs []uint64) bool {
		r := NewRAS(16)
		for i, op := range ops {
			if op%2 == 0 && i < len(addrs) {
				r.Push(addrs[i])
			} else {
				r.Pop()
			}
		}
		snap := r.Snapshot()
		depth := r.Depth()
		// Arbitrary mutation...
		r.Push(0xFFFF)
		r.Pop()
		r.Pop()
		// ...must be fully undone by Restore.
		r.Restore(snap)
		if r.Depth() != depth {
			return false
		}
		r2 := NewRAS(16)
		r2.Restore(snap)
		for r.Depth() > 0 {
			a1, _ := r.Pop()
			a2, _ := r2.Pop()
			if a1 != a2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRASSnapshotsDoNotAlias fills each buffer from Snapshots in turn, by
// SnapshotInto and by CopyInto, and checks that no write reaches another
// buffer: a core keeps one per in-flight instruction, all in one array.
func TestRASSnapshotsDoNotAlias(t *testing.T) {
	const n = 5
	r := NewRAS(4)
	snaps := r.Snapshots(n)
	if len(snaps) != n {
		t.Fatalf("len = %d, want %d", len(snaps), n)
	}
	want := make([][]uint64, n)
	for i := range snaps {
		want[i] = append([]uint64(nil), snaps[i].entries...)
	}
	check := func(step string) {
		t.Helper()
		for i := range snaps {
			if !slices.Equal(snaps[i].entries, want[i]) {
				t.Fatalf("%s: buffer %d = %v, want %v", step, i, snaps[i].entries, want[i])
			}
		}
	}
	for i := range snaps {
		// A full stack, so every word of the buffer is written.
		for k := 0; k < 4; k++ {
			r.Push(uint64(100*i + k + 1))
		}
		r.SnapshotInto(&snaps[i])
		want[i] = append(want[i][:0], r.entries...)
		check("SnapshotInto")
	}
	src := r.Snapshot()
	for i := range snaps {
		src.entries[0] = uint64(1000 + i)
		src.CopyInto(&snaps[i])
		want[i] = append(want[i][:0], src.entries...)
		check("CopyInto")
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewBTB(48, 4) }, // 12 sets: not a power of two
		func() { NewRAS(0) },
	} {
		func() {
			defer func() { recover() }()
			f()
			t.Error("constructor must panic on invalid sizing")
		}()
	}
}
