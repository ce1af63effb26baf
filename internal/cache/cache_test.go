package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Params{Name: "test", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 4})
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000) {
		t.Error("empty cache must miss")
	}
	c.Install(0x1000)
	if !c.Lookup(0x1000) {
		t.Error("installed line must hit")
	}
	if !c.Lookup(0x1030) {
		t.Error("same line, different offset must hit")
	}
	if c.Lookup(0x1040) {
		t.Error("next line must miss")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines mapping to the same set (set stride = 4 sets * 64B = 256B).
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Install(a)
	c.Install(b)
	c.Lookup(a) // refresh a; b becomes LRU
	if ev := c.Install(d); !ev {
		t.Error("installing into a full set must evict")
	}
	if !c.Present(a) {
		t.Error("recently used line must survive")
	}
	if c.Present(b) {
		t.Error("LRU line must be evicted")
	}
	if !c.Present(d) {
		t.Error("new line must be present")
	}
}

func TestInstallIdempotent(t *testing.T) {
	c := smallCache()
	c.Install(0x40)
	if ev := c.Install(0x40); ev {
		t.Error("re-installing a present line must not evict")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Install(0x80)
	if !c.Flush(0x80) {
		t.Error("flush of present line must report true")
	}
	if c.Present(0x80) {
		t.Error("flushed line must be gone")
	}
	if c.Flush(0x80) {
		t.Error("flush of absent line must report false")
	}
	// A flushed way is free: the next fill of its full set takes it
	// instead of evicting the LRU line.
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Install(a)
	c.Install(b)
	c.Flush(a)
	if ev := c.Install(d); ev {
		t.Error("filling a flushed way must not evict")
	}
	if !c.Present(b) || !c.Present(d) || c.Present(a) {
		t.Error("fill after flush must keep the live line and drop only the flushed one")
	}
}

func TestPresentHasNoSideEffects(t *testing.T) {
	c := smallCache()
	c.Install(0x40)
	before := c.Stats()
	c.Present(0x40)
	c.Present(0x1234560)
	if c.Stats() != before {
		t.Error("Present must not touch counters")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := smallCache()
	c.Install(0x40)
	c.Install(0x80)
	c.InvalidateAll()
	if c.Present(0x40) || c.Present(0x80) {
		t.Error("InvalidateAll must empty the cache")
	}
}

func TestCapacityBound(t *testing.T) {
	c := smallCache() // 8 lines total
	f := func(seed int64) bool {
		c.InvalidateAll()
		r := rand.New(rand.NewSource(seed))
		addrs := make(map[uint64]bool)
		for i := 0; i < 100; i++ {
			a := uint64(r.Intn(1<<16)) &^ 63
			c.Install(a)
			addrs[a] = true
		}
		present := 0
		for a := range addrs {
			if c.Present(a) {
				present++
			}
		}
		return present <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBadParamsPanic(t *testing.T) {
	for _, p := range []Params{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 512, LineBytes: 60, Ways: 2}, // line size not a power of two
		{SizeBytes: 768, LineBytes: 64, Ways: 2}, // set count not a power of two
		{SizeBytes: 500, LineBytes: 64, Ways: 2}, // not divisible
	} {
		func() {
			defer func() { recover() }()
			New(p)
			t.Errorf("params %+v must panic", p)
		}()
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats must have zero miss rate")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 || s.Accesses() != 4 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x10000)

	r := h.Data(addr)
	if r.Level != LevelDRAM || r.Latency != 140 {
		t.Errorf("cold access = %+v, want DRAM/140", r)
	}
	if !r.OffChip() {
		t.Error("DRAM access must be off-chip")
	}
	r = h.Data(addr)
	if r.Level != LevelL1 || r.Latency != 4 {
		t.Errorf("warm access = %+v, want L1/4", r)
	}

	// Evict from L1 only: a string of conflicting lines (same L1 set).
	h.L1D.Flush(addr)
	r = h.Data(addr)
	if r.Level != LevelL2 || r.Latency != 40 {
		t.Errorf("L1-flushed access = %+v, want L2/40", r)
	}
}

func TestHierarchyNoInstall(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x20000)
	r := h.DataNoInstall(addr)
	if r.Level != LevelDRAM {
		t.Errorf("cold no-install = %+v", r)
	}
	if h.DataPresent(addr) {
		t.Error("no-install access must leave the line absent")
	}
	r = h.DataNoInstall(addr)
	if r.Level != LevelDRAM {
		t.Error("repeated no-install access must still miss (no speculative reuse)")
	}
	h.InstallData(addr)
	if !h.DataPresent(addr) {
		t.Error("InstallData must expose the line")
	}
	if r := h.Data(addr); r.Level != LevelL1 {
		t.Errorf("exposed line = %+v, want L1 hit", r)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x30000)
	h.Data(addr)
	h.Inst(addr)
	h.Flush(addr)
	if h.DataPresent(addr) || h.L1I.Present(addr) {
		t.Error("Flush must remove the line from every level")
	}
}

func TestInstPath(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x40000)
	if r := h.Inst(addr); r.Level != LevelDRAM {
		t.Errorf("cold fetch = %+v", r)
	}
	if r := h.Inst(addr); r.Level != LevelL1 || r.Latency != 4 {
		t.Errorf("warm fetch = %+v", r)
	}
	// I-fetch must not populate L1D.
	if h.L1D.Present(addr) {
		t.Error("instruction fetch must not fill L1D")
	}
	// But it shares L2.
	if !h.L2.Present(addr) {
		t.Error("instruction fetch must fill L2")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelDRAM.String() != "DRAM" {
		t.Error("level names")
	}
	if Level(9).String() != "Level(9)" {
		t.Error("unknown level name")
	}
}
