package ooo

import "math/bits"

// The issue queue's wakeup scheduler: dispatch enters an entry as a waiter
// on each source register that has not broadcast, doBroadcast wakes a
// register's waiters, and issue walks only the entries with no unready
// source. See DESIGN.md, "Wakeup scheduling".

// slotSet is a bitmask over ROB ring slots: the ready set, and each
// physical register's waiters.
type slotSet []uint64

func newSlotSet(slots int) slotSet { return make(slotSet, (slots+63)/64) }

func (s slotSet) add(slot int32)      { s[slot>>6] |= 1 << (slot & 63) }
func (s slotSet) remove(slot int32)   { s[slot>>6] &^= 1 << (slot & 63) }
func (s slotSet) has(slot int32) bool { return s[slot>>6]&(1<<(slot&63)) != 0 }

// count returns the number of slots in s.
func (s slotSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// next returns the lowest slot in s within [from, to), or -1.
func (s slotSet) next(from, to int) int {
	for from < to {
		if w := s[from>>6] >> (from & 63); w != 0 {
			if i := from + bits.TrailingZeros64(w); i < to {
				return i
			}
			return -1
		}
		from = (from | 63) + 1
	}
	return -1
}

// iqInsert enters a just-renamed entry into the issue queue: it joins the
// waiters of each counted source that has not broadcast, or the ready set
// if there is none. A store's data register is read at forwarding time and
// at commit, not at issue, so it is not counted.
func (c *Core) iqInsert(e *Entry) {
	e.InIQ = true
	c.iqLen++
	c.waitOn(e, e.Src1P)
	if !e.Inst.IsStore() && e.Src2P != e.Src1P {
		c.waitOn(e, e.Src2P)
	}
	if e.waiting == 0 {
		c.ready.add(e.Slot)
	}
}

func (c *Core) waitOn(e *Entry, p int) {
	if p != noPReg && !c.regReady[p] {
		c.waitersOf(p).add(e.Slot)
		e.waiting++
	}
}

// waitersOf returns physical register p's waiter set.
func (c *Core) waitersOf(p int) slotSet {
	w := len(c.ready)
	return c.waiters[p*w : (p+1)*w]
}

// wake removes every waiter on register p, which has just broadcast; each
// one with no other unready source joins the ready set.
func (c *Core) wake(p int) {
	w := c.waitersOf(p)
	for i, word := range w {
		for ; word != 0; word &= word - 1 {
			e := &c.rob[i<<6+bits.TrailingZeros64(word)]
			e.waiting--
			if e.waiting == 0 {
				c.ready.add(e.Slot)
			}
		}
		w[i] = 0
	}
}

// iqRemove takes e out of the issue queue, at issue or at a squash: its
// ready bit and any waiter bits are cleared. An entry is in exactly as
// many waiter sets as its waiting count says, so an issuing one is in none.
func (c *Core) iqRemove(e *Entry) {
	e.InIQ = false
	c.iqLen--
	c.ready.remove(e.Slot)
	if e.waiting > 0 {
		for _, p := range [2]int{e.Src1P, e.Src2P} {
			if p != noPReg {
				c.waitersOf(p).remove(e.Slot)
			}
		}
	}
}

// nextReady returns the ROB index (0 = head) of the oldest ready entry at
// or after ROB index i, or -1. Ring order from robHead is age order, so the
// walk is the ready set's slots from robHead up, then from 0 up to the
// youngest entry if the ROB wraps.
func (c *Core) nextReady(i int) int {
	n, end := len(c.rob), c.robHead+c.robLen
	s := c.robHead + i
	if s < n {
		if j := c.ready.next(s, min(end, n)); j >= 0 {
			return j - c.robHead
		}
		s = n
	}
	if end > n {
		if j := c.ready.next(s-n, end-n); j >= 0 {
			return j + n - c.robHead
		}
	}
	return -1
}
