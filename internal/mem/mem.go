package mem

import (
	"fmt"

	"clustersim/internal/interconnect"
	"clustersim/internal/snap"
)

// Config holds memory-hierarchy parameters. DefaultCentralConfig and
// DefaultDistConfig return the paper's Table 2 organizations.
type Config struct {
	// Centralized selects the centralized L1 organization; otherwise the
	// L1 is decentralized with one bank per cluster.
	Centralized bool

	// L1Size is the capacity in bytes (total when centralized, per bank
	// when decentralized).
	L1Size int
	// L1Line is the line size in bytes.
	L1Line int
	// L1Ways is the set associativity.
	L1Ways int
	// L1Latency is the bank RAM lookup time in cycles.
	L1Latency int
	// L1Banks is the number of word-interleaved banks (centralized only;
	// the decentralized organization has one bank per cluster).
	L1Banks int

	// L2Size, L2Line, L2Ways, L2Latency describe the unified L2.
	L2Size    int
	L2Line    int
	L2Ways    int
	L2Latency int
	// L2Busy is the L2 initiation interval (bus/tag occupancy per access).
	L2Busy int
	// MemLatency is the additional latency of main memory.
	MemLatency int
	// MemBusy is the memory-bus initiation interval (cycles per line
	// fetched from memory), bounding memory bandwidth.
	MemBusy int

	// WordBytes is the interleaving granularity (8-byte Alpha words).
	WordBytes int

	// Clusters is the total cluster count (needed by the decentralized
	// organization to size its banks).
	Clusters int
}

// DefaultCentralConfig returns Table 2's centralized organization: 32KB,
// 2-way, 32-byte lines, 4-way word-interleaved, 6-cycle RAM lookup.
func DefaultCentralConfig(clusters int) Config {
	return Config{
		Centralized: true,
		L1Size:      32 << 10,
		L1Line:      32,
		L1Ways:      2,
		L1Latency:   6,
		L1Banks:     4,
		L2Size:      2 << 20,
		L2Line:      64,
		L2Ways:      8,
		L2Latency:   25,
		L2Busy:      2,
		MemLatency:  160,
		MemBusy:     4,
		WordBytes:   8,
		Clusters:    clusters,
	}
}

// DefaultDistConfig returns Table 2's decentralized organization: a 16KB,
// 2-way, 8-byte-line, single-ported, 4-cycle bank in each cluster.
func DefaultDistConfig(clusters int) Config {
	return Config{
		Centralized: false,
		L1Size:      16 << 10,
		L1Line:      8,
		L1Ways:      2,
		L1Latency:   4,
		L1Banks:     clusters,
		L2Size:      2 << 20,
		L2Line:      64,
		L2Ways:      8,
		L2Latency:   25,
		L2Busy:      2,
		MemLatency:  160,
		MemBusy:     4,
		WordBytes:   8,
		Clusters:    clusters,
	}
}

func (c Config) validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("mem: Clusters must be >= 1, got %d", c.Clusters)
	}
	for _, v := range []struct {
		name string
		val  int
	}{
		{"L1Size", c.L1Size}, {"L1Line", c.L1Line}, {"L1Ways", c.L1Ways},
		{"L1Latency", c.L1Latency}, {"L1Banks", c.L1Banks},
		{"L2Size", c.L2Size}, {"L2Line", c.L2Line}, {"L2Ways", c.L2Ways},
		{"L2Latency", c.L2Latency}, {"L2Busy", c.L2Busy},
		{"MemLatency", c.MemLatency}, {"MemBusy", c.MemBusy}, {"WordBytes", c.WordBytes},
	} {
		if v.val <= 0 {
			return fmt.Errorf("mem: %s must be positive, got %d", v.name, v.val)
		}
	}
	if c.L1Banks&(c.L1Banks-1) != 0 {
		return fmt.Errorf("mem: L1Banks must be a power of two, got %d", c.L1Banks)
	}
	if c.WordBytes&(c.WordBytes-1) != 0 {
		return fmt.Errorf("mem: WordBytes must be a power of two, got %d", c.WordBytes)
	}
	return nil
}

// Stats aggregates memory-hierarchy statistics.
type Stats struct {
	Loads          uint64
	Stores         uint64
	L1Hits         uint64
	L1Misses       uint64
	L1Writebacks   uint64
	L2Hits         uint64
	L2Misses       uint64
	L2MergedMisses uint64
	L2Writebacks   uint64
	// FlushWritebacks counts dirty lines written back by reconfiguration
	// flushes (§5 reports vpr's 400K as the worst case).
	FlushWritebacks uint64
	// Flushes counts reconfiguration flushes.
	Flushes uint64
}

// Conserved checks the hierarchy's accounting identities against an earlier
// snapshot of the same run: counters only grow, every access hits or misses
// the L1 exactly once (L1Hits+L1Misses == Loads+Stores), and every L1 miss
// is serviced by the L2 exactly once, as a hit, a miss, or a merge into an
// outstanding miss (L2Hits+L2Misses+L2MergedMisses == L1Misses). It returns
// nil when the statistics are consistent.
func (s Stats) Conserved(prev Stats) error {
	for _, c := range [...]struct {
		name      string
		cur, prev uint64
	}{
		{"Loads", s.Loads, prev.Loads},
		{"Stores", s.Stores, prev.Stores},
		{"L1Hits", s.L1Hits, prev.L1Hits},
		{"L1Misses", s.L1Misses, prev.L1Misses},
		{"L1Writebacks", s.L1Writebacks, prev.L1Writebacks},
		{"L2Hits", s.L2Hits, prev.L2Hits},
		{"L2Misses", s.L2Misses, prev.L2Misses},
		{"L2MergedMisses", s.L2MergedMisses, prev.L2MergedMisses},
		{"L2Writebacks", s.L2Writebacks, prev.L2Writebacks},
		{"FlushWritebacks", s.FlushWritebacks, prev.FlushWritebacks},
		{"Flushes", s.Flushes, prev.Flushes},
	} {
		if c.cur < c.prev {
			return fmt.Errorf("mem: %s went backwards: %d -> %d", c.name, c.prev, c.cur)
		}
	}
	if s.L1Hits+s.L1Misses != s.Loads+s.Stores {
		return fmt.Errorf("mem: L1 hits+misses %d != %d loads + %d stores",
			s.L1Hits+s.L1Misses, s.Loads, s.Stores)
	}
	if s.L2Hits+s.L2Misses+s.L2MergedMisses != s.L1Misses {
		return fmt.Errorf("mem: L2 hits+misses+merged %d != %d L1 misses",
			s.L2Hits+s.L2Misses+s.L2MergedMisses, s.L1Misses)
	}
	return nil
}

// L1MissRate returns L1 misses per access, or 0 with no accesses.
func (s Stats) L1MissRate() float64 {
	total := s.L1Hits + s.L1Misses
	if total == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(total)
}

// System is the interface the pipeline uses to time memory operations.
// Implementations are not safe for concurrent use.
type System interface {
	snap.Stater
	// Load times a load issued from cluster whose address is available
	// there at cycle ready; it returns the cycle the data reaches the
	// requesting cluster and whether the access hit in the L1.
	Load(ready uint64, cluster int, addr uint64) (done uint64, hitL1 bool)
	// StoreCommit performs a committed store (writes happen at commit).
	StoreCommit(now uint64, cluster int, addr uint64)
	// Bank returns the full-machine bank index for addr (used to train
	// the bank predictor, always in maximum-bank terms).
	Bank(addr uint64) int
	// HomeCluster returns the cluster that services addr under the
	// current active configuration (always 0 for the centralized cache).
	HomeCluster(addr uint64) int
	// SetActive reconfigures the number of active banks/clusters. Only
	// the decentralized organization changes interleaving.
	SetActive(banks int)
	// Flush writes back all dirty L1 lines starting at cycle now and
	// returns when the flush completes and how many lines were written.
	Flush(now uint64) (done uint64, writebacks uint64)
	// BankBacklog returns the mean number of reserved L1 bank-port
	// cycles per bank over the window [from, to) — an observability
	// probe for cache-port pressure; it does not disturb reservations.
	BankBacklog(from, to uint64) float64
	// Stats returns cumulative statistics.
	Stats() Stats
}

// New builds a System from cfg, moving data over net (used for the
// cluster↔cache and cache↔L2 transfers the paper charges to the register/
// cache data network).
func New(cfg Config, net interconnect.Network) (System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Centralized {
		return newCentral(cfg, net), nil
	}
	return newDist(cfg, net), nil
}
