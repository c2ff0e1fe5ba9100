package mem

import "clustersim/internal/interconnect"

// central is the centralized L1 organization: the cache (and LSQ) live next
// to cluster 0. A load issued from cluster c pays the network trip c→0 for
// the address and 0→c for the data, plus bank-port contention and the
// 6-cycle RAM lookup (§2.1: "cluster 3 experiences a total communication
// cost of four cycles for each load" on the 16-cluster ring).
type central struct {
	cfg      Config               //simlint:nostate configuration, rebuilt by the constructor
	net      interconnect.Network //simlint:nostate wiring reference; the network serializes its own state
	arr      *array
	l2       *l2
	bankFree []interconnect.Calendar
	stats    Stats

	// freeLoadComm implements the §4 ablation "assuming zero
	// inter-cluster communication cost for loads and stores".
	freeLoadComm bool //simlint:nostate ablation switch, part of configuration
}

func newCentral(cfg Config, net interconnect.Network) *central {
	c := &central{cfg: cfg, net: net}
	c.arr = newArray(cfg.L1Size, cfg.L1Line, cfg.L1Ways)
	c.l2 = newL2(cfg, &c.stats)
	c.bankFree = make([]interconnect.Calendar, cfg.L1Banks)
	for i := range c.bankFree {
		c.bankFree[i] = interconnect.NewCalendar()
	}
	return c
}

// SetFreeLoadComm enables/disables the zero-cost load/store communication
// ablation.
func (c *central) SetFreeLoadComm(v bool) { c.freeLoadComm = v }

// Bank implements System: word-interleaving over the physical banks.
func (c *central) Bank(addr uint64) int {
	return int(addr/uint64(c.cfg.WordBytes)) & (c.cfg.L1Banks - 1)
}

// HomeCluster implements System; the centralized cache lives at cluster 0.
func (c *central) HomeCluster(addr uint64) int { return 0 }

// SetActive implements System; the centralized organization is unaffected
// by the active-cluster count.
func (c *central) SetActive(banks int) {}

// Load implements System.
func (c *central) Load(ready uint64, cluster int, addr uint64) (uint64, bool) {
	c.stats.Loads++
	t := ready
	if !c.freeLoadComm {
		t = c.net.Send(t, cluster, 0)
	}
	t = c.bankAccess(t, addr)
	hit, wb := c.arr.access(addr, false)
	if wb {
		c.stats.L1Writebacks++
		c.l2.writeback(t, addr)
	}
	if hit {
		c.stats.L1Hits++
		t += uint64(c.cfg.L1Latency)
	} else {
		c.stats.L1Misses++
		t = c.l2.access(t+uint64(c.cfg.L1Latency), addr, false)
	}
	if !c.freeLoadComm {
		t = c.net.Send(t, 0, cluster)
	}
	return t, hit
}

// StoreCommit implements System.
func (c *central) StoreCommit(now uint64, cluster int, addr uint64) {
	c.stats.Stores++
	t := now
	if !c.freeLoadComm {
		t = c.net.Send(t, cluster, 0)
	}
	t = c.bankAccess(t, addr)
	hit, wb := c.arr.access(addr, true)
	if wb {
		c.stats.L1Writebacks++
		c.l2.writeback(t, addr)
	}
	if hit {
		c.stats.L1Hits++
	} else {
		c.stats.L1Misses++
		c.l2.access(t+uint64(c.cfg.L1Latency), addr, true)
	}
}

// bankAccess reserves the addressed bank's port (one access per cycle).
func (c *central) bankAccess(t uint64, addr uint64) uint64 {
	return c.bankFree[c.Bank(addr)].Reserve(t)
}

// BankBacklog implements System: mean reserved bank-port cycles per bank
// over the window.
func (c *central) BankBacklog(from, to uint64) float64 {
	if to <= from {
		return 0
	}
	reserved := 0
	for _, cal := range c.bankFree {
		reserved += cal.ReservedIn(from, to)
	}
	return float64(reserved) / float64(len(c.bankFree))
}

// Flush implements System. The centralized cache never needs a
// reconfiguration flush, but the operation is still meaningful (e.g. tests).
func (c *central) Flush(now uint64) (uint64, uint64) {
	wb := c.arr.flush()
	c.stats.Flushes++
	c.stats.FlushWritebacks += wb
	// Dirty lines drain over the L2 bus.
	done := now + wb*uint64(c.cfg.L2Busy) + uint64(c.cfg.L2Latency)
	return done, wb
}

// Stats implements System.
func (c *central) Stats() Stats { return c.stats }

var _ System = (*central)(nil)
