// Package cache models a set-associative cache hierarchy with LRU
// replacement and fixed round-trip latencies, mirroring the gem5
// configuration in Table 3 of the NDA paper (32kB 8-way L1I/L1D at 4 cycles,
// 2MB 16-way L2 at 40 cycles, 50ns DRAM).
//
// The hierarchy is a timing model: an access returns the round-trip latency
// and the level that serviced it, and installs the line into the levels it
// traversed. Installation can be suppressed, which is how the InvisiSpec
// comparator makes speculative loads invisible to the cache state.
package cache

import "fmt"

// Level identifies which level of the hierarchy serviced an access.
type Level int

const (
	LevelL1 Level = iota
	LevelL2
	LevelDRAM
)

// String returns the level's conventional name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Params configures a single cache.
type Params struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // round-trip cycles on a hit at this level
}

// Stats counts hits and misses observed by one cache.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses / accesses, or 0 if there were no accesses.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

type way struct {
	tag   uint64
	stamp uint64 // LRU timestamp; larger = more recently used; 0 = invalid
}

// valid reports whether the way holds a line. Every access advances the
// clock before stamping, so a filled way's stamp is never 0; keeping the
// bit in the stamp makes a way 16 bytes, not 24.
func (w *way) valid() bool { return w.stamp != 0 }

// Cache is a single set-associative cache with true-LRU replacement.
type Cache struct {
	p       Params
	ways    []way // set s is ways[s*p.Ways : (s+1)*p.Ways]
	numSets int
	shift   uint // log2(LineBytes)
	clock   uint64
	stats   Stats
}

// New builds a cache from params. SizeBytes must be divisible by
// LineBytes*Ways and the resulting set count must be a power of two.
func New(p Params) *Cache {
	if p.LineBytes <= 0 || p.Ways <= 0 || p.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid params %+v", p.Name, p))
	}
	if p.SizeBytes%(p.LineBytes*p.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by line*ways", p.Name, p.SizeBytes))
	}
	numSets := p.SizeBytes / (p.LineBytes * p.Ways)
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", p.Name, numSets))
	}
	shift := uint(0)
	for 1<<shift < p.LineBytes {
		shift++
	}
	if 1<<shift != p.LineBytes {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", p.Name, p.LineBytes))
	}
	return &Cache{p: p, ways: make([]way, numSets*p.Ways), numSets: numSets, shift: shift}
}

// Params returns the cache's configuration.
func (c *Cache) Params() Params { return c.p }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the hit/miss counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// index returns addr's set and tag.
func (c *Cache) index(addr uint64) (set []way, tag uint64) {
	line := addr >> c.shift
	s := int(line&uint64(c.numSets-1)) * c.p.Ways
	return c.ways[s : s+c.p.Ways], line >> uint(log2(c.numSets))
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// Lookup probes the cache for addr. On a hit the line's LRU stamp is
// refreshed. The hit/miss counters are updated.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	c.clock++
	for i := range set {
		w := &set[i]
		if w.valid() && w.tag == tag {
			w.stamp = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Present reports whether addr's line is cached, without touching LRU state
// or counters. Used by validation logic and by tests.
func (c *Cache) Present(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range set {
		w := &set[i]
		if w.valid() && w.tag == tag {
			return true
		}
	}
	return false
}

// Install brings addr's line into the cache, evicting the LRU way if the
// set is full. It reports whether an eviction occurred. Installing a line
// that is already present only refreshes its stamp.
func (c *Cache) Install(addr uint64) (evicted bool) {
	set, tag := c.index(addr)
	c.clock++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i := range set {
		w := &set[i]
		if w.valid() && w.tag == tag {
			w.stamp = c.clock
			return false
		}
		if !w.valid() {
			if victim == -1 || set[victim].valid() {
				victim = i
			}
			oldest = 0
		} else if w.stamp < oldest {
			victim, oldest = i, w.stamp
		}
	}
	w := &set[victim]
	evicted = w.valid()
	*w = way{tag: tag, stamp: c.clock}
	return evicted
}

// Flush removes addr's line if present and reports whether it was.
func (c *Cache) Flush(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range set {
		w := &set[i]
		if w.valid() && w.tag == tag {
			w.stamp = 0
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (contents only; stats are kept).
func (c *Cache) InvalidateAll() {
	clear(c.ways)
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return c.p.LineBytes }
