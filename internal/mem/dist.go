package mem

import "clustersim/internal/interconnect"

// dist is the decentralized L1 organization (§2.2): the L1 is broken into
// one word-interleaved bank per cluster; banks cache mutually exclusive
// addresses so no coherence is needed. Interleaving spans only the *active*
// banks, so reconfiguration changes the address→bank mapping and requires a
// flush (§5). The L2 stays co-located with cluster 0: a miss in bank b pays
// b→0 and 0→b trips.
type dist struct {
	cfg         Config               //simlint:nostate configuration, rebuilt by the constructor
	net         interconnect.Network //simlint:nostate wiring reference; the network serializes its own state
	banks       []*array
	l2          *l2
	bankFree    []interconnect.Calendar
	activeBanks int
	stats       Stats
}

func newDist(cfg Config, net interconnect.Network) *dist {
	d := &dist{cfg: cfg, net: net, activeBanks: cfg.Clusters}
	d.banks = make([]*array, cfg.Clusters)
	for i := range d.banks {
		d.banks[i] = newArray(cfg.L1Size, cfg.L1Line, cfg.L1Ways)
	}
	d.l2 = newL2(cfg, &d.stats)
	d.bankFree = make([]interconnect.Calendar, cfg.Clusters)
	for i := range d.bankFree {
		d.bankFree[i] = interconnect.NewCalendar()
	}
	return d
}

// Bank implements System: the full-machine (maximum-bank) index used to
// train the bank predictor.
func (d *dist) Bank(addr uint64) int {
	return int(addr/uint64(d.cfg.WordBytes)) & (d.cfg.Clusters - 1)
}

// HomeCluster implements System: interleaving over the active banks only.
func (d *dist) HomeCluster(addr uint64) int {
	return int(addr/uint64(d.cfg.WordBytes)) & (d.activeBanks - 1)
}

// SetActive implements System. Callers must Flush first; §5's "least
// complex solution is to stall the processor while the L1 data cache is
// flushed to L2".
func (d *dist) SetActive(banks int) {
	if banks < 1 {
		banks = 1
	}
	if banks > d.cfg.Clusters {
		banks = d.cfg.Clusters
	}
	d.activeBanks = banks
}

// Load implements System.
func (d *dist) Load(ready uint64, cluster int, addr uint64) (uint64, bool) {
	d.stats.Loads++
	home := d.HomeCluster(addr)
	t := d.net.Send(ready, cluster, home)
	t = d.bankAccess(t, home)
	hit, wb := d.banks[home].access(addr, false)
	if wb {
		d.stats.L1Writebacks++
		d.l2.writeback(d.net.Send(t, home, 0), addr)
	}
	if hit {
		d.stats.L1Hits++
		t += uint64(d.cfg.L1Latency)
	} else {
		d.stats.L1Misses++
		req := d.net.Send(t+uint64(d.cfg.L1Latency), home, 0)
		rsp := d.l2.access(req, addr, false)
		t = d.net.Send(rsp, 0, home)
	}
	return d.net.Send(t, home, cluster), hit
}

// StoreCommit implements System.
func (d *dist) StoreCommit(now uint64, cluster int, addr uint64) {
	d.stats.Stores++
	home := d.HomeCluster(addr)
	t := d.net.Send(now, cluster, home)
	t = d.bankAccess(t, home)
	hit, wb := d.banks[home].access(addr, true)
	if wb {
		d.stats.L1Writebacks++
		d.l2.writeback(d.net.Send(t, home, 0), addr)
	}
	if hit {
		d.stats.L1Hits++
	} else {
		d.stats.L1Misses++
		req := d.net.Send(t+uint64(d.cfg.L1Latency), home, 0)
		d.l2.access(req, addr, true)
	}
}

func (d *dist) bankAccess(t uint64, bank int) uint64 {
	return d.bankFree[bank].Reserve(t)
}

// BankBacklog implements System: mean reserved bank-port cycles per active
// bank over the window.
func (d *dist) BankBacklog(from, to uint64) float64 {
	if to <= from || d.activeBanks == 0 {
		return 0
	}
	reserved := 0
	for b := 0; b < d.activeBanks; b++ {
		reserved += d.bankFree[b].ReservedIn(from, to)
	}
	return float64(reserved) / float64(d.activeBanks)
}

// Flush implements System: write back every dirty line in every bank to the
// L2 and invalidate. Writebacks drain over the serialized L2 bus.
func (d *dist) Flush(now uint64) (uint64, uint64) {
	var wb uint64
	for _, b := range d.banks {
		wb += b.flush()
	}
	d.stats.Flushes++
	d.stats.FlushWritebacks += wb
	done := now + wb*uint64(d.cfg.L2Busy) + uint64(d.cfg.L2Latency)
	return done, wb
}

// Stats implements System.
func (d *dist) Stats() Stats { return d.stats }

var _ System = (*dist)(nil)
