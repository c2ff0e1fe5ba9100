// Package interconnect models the point-to-point networks that connect
// clusters in the simulated processor.
//
// The paper's baseline is a pair of unidirectional rings (each cluster
// connected to its two neighbours; 32 links for 16 clusters; worst-case 8
// hops); the sensitivity study adds a two-dimensional grid (up to four
// neighbours; 48 links for 16 clusters; worst-case 6 hops). Register values,
// cache addresses and cache data all travel on this network; each hop takes
// a configurable number of cycles (one by default), and each link carries at
// most one transfer per cycle, so contention introduces queueing delay.
//
// The model reserves link slots in a per-link calendar: each link holds a
// table of reserved cycles (indexed by cycle modulo the table size, storing
// the absolute cycle so stale epochs never alias), and a message traverses
// its route hop by hop, departing each node at the first unreserved cycle at
// or after its arrival. Reservations may be made in any simulation order —
// a transfer scheduled far in the future does not block one wanted earlier —
// which yields realistic queueing without a global event queue. Links are
// pipelined: one new transfer per cycle regardless of per-hop latency.
package interconnect

import (
	"fmt"

	"clustersim/internal/snap"
)

// calendarBits sizes each link's reservation window (2^calendarBits cycles).
// Transfers further than this apart never collide in practice; on overflow
// the reservation silently degrades to best effort at the horizon.
const calendarBits = 12

// Calendar tracks which cycles a unit-bandwidth resource (a link, a cache
// bank port, a bus slot) is reserved for. Reservations may be made in any
// order; NewCalendar sizes the window.
type Calendar []uint64

// NewCalendar returns a Calendar covering a 2^calendarBits-cycle window.
func NewCalendar() Calendar { return make(Calendar, 1<<calendarBits) }

func newCalendars(n int) []Calendar {
	c := make([]Calendar, n)
	for i := range c {
		c[i] = NewCalendar()
	}
	return c
}

// Reserve books the first free cycle at or after t and returns it. Slot
// contents are the absolute cycle they are reserved for, so entries from
// old epochs are reusable without clearing. Cycle 0 is never reserved
// (simulation cycles start at 1), so the zero value means "free".
func (l Calendar) Reserve(t uint64) uint64 {
	if t == 0 {
		t = 1
	}
	mask := uint64(len(l) - 1)
	for i := 0; ; i++ {
		if l[t&mask] != t {
			l[t&mask] = t
			return t
		}
		t++
		if i >= len(l) { // calendar saturated: best effort
			return t
		}
	}
}

// ReserveEvery books the first free cycle at or after t such that the
// resource stays busy for busy cycles (initiation interval busy); it
// reserves all busy cycles and returns the start.
func (l Calendar) ReserveEvery(t, busy uint64) uint64 {
	if busy <= 1 {
		return l.Reserve(t)
	}
	start := l.Reserve(t)
	for i := uint64(1); i < busy; i++ {
		l.Reserve(start + i)
	}
	return start
}

// ReservedIn counts the cycles in [from, to) that are reserved. The window
// is clamped to the calendar's span; observability probes use this to read
// recent occupancy without disturbing reservations.
func (l Calendar) ReservedIn(from, to uint64) int {
	if to > from+uint64(len(l)) {
		to = from + uint64(len(l))
	}
	mask := uint64(len(l) - 1)
	n := 0
	for t := from; t < to; t++ {
		if l[t&mask] == t {
			n++
		}
	}
	return n
}

// Network is a cluster interconnect. Implementations are not safe for
// concurrent use; a simulation owns its networks.
type Network interface {
	snap.Stater
	// Clusters returns the number of nodes.
	Clusters() int
	// Hops returns the routed hop count between nodes a and b.
	Hops(a, b int) int
	// Diameter returns the worst-case routed hop count between any two
	// nodes — the upper bound on the hops of a single transfer, which the
	// validation layer uses for link-transfer conservation checks.
	Diameter() int
	// Send reserves a one-word transfer from a to b that may begin no
	// earlier than cycle ready, and returns the cycle at which the word
	// is available at b. Send(ready, a, a) == ready.
	Send(ready uint64, a, b int) uint64
	// Broadcast reserves transfers from a to every node in [0, active)
	// other than a and returns the cycle by which the last copy arrives.
	Broadcast(ready uint64, a, active int) uint64
	// Utilization returns the fraction of link-cycles reserved over the
	// cycle window [from, to) across all links — an observability probe;
	// it does not disturb reservations.
	Utilization(from, to uint64) float64
	// Stats returns cumulative transfer statistics.
	Stats() Stats
}

// Stats aggregates transfer statistics for a network.
type Stats struct {
	// Transfers is the number of point-to-point sends with nonzero hops.
	Transfers uint64
	// Hops is the total number of link traversals.
	Hops uint64
	// LatencySum is the sum over transfers of (arrival - ready) cycles,
	// including queueing delay. LatencySum/Transfers is the average
	// inter-cluster communication latency the paper quotes (4.1 cycles
	// for the 16-cluster ring).
	LatencySum uint64
}

// AvgLatency returns the mean cycles per transfer, or 0 if none occurred.
func (s Stats) AvgLatency() float64 {
	if s.Transfers == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Transfers)
}

// Conserved checks link-transfer conservation against a network of the
// given diameter: counters only grow from prev, every transfer traverses at
// least one and at most diameter links, and latency is charged whenever
// links are (a transfer cannot arrive before it departs). It returns nil
// when the statistics are consistent.
func (s Stats) Conserved(prev Stats, diameter int) error {
	switch {
	case s.Transfers < prev.Transfers || s.Hops < prev.Hops || s.LatencySum < prev.LatencySum:
		return fmt.Errorf("interconnect: counters went backwards: %+v -> %+v", prev, s)
	case s.Hops < s.Transfers:
		return fmt.Errorf("interconnect: %d transfers but only %d link traversals", s.Transfers, s.Hops)
	case diameter > 0 && s.Hops > s.Transfers*uint64(diameter):
		return fmt.Errorf("interconnect: %d link traversals exceed %d transfers x diameter %d",
			s.Hops, s.Transfers, diameter)
	case s.Hops > 0 && s.LatencySum == 0:
		return fmt.Errorf("interconnect: %d link traversals with zero accumulated latency", s.Hops)
	}
	return nil
}

// Ring is a bidirectional ring built from two unidirectional rings.
type Ring struct {
	n      int    //simlint:nostate geometry, rebuilt by the constructor
	hopLat uint64 //simlint:nostate geometry, rebuilt by the constructor
	cw     []Calendar
	ccw    []Calendar
	stats  Stats
}

// NewRing returns a ring network over n clusters with the given per-hop
// latency in cycles. Invalid parameters (n < 1 or hopLatency < 1) are a
// configuration error, reachable from the public API, and are reported as
// such rather than panicking.
func NewRing(n int, hopLatency int) (*Ring, error) {
	if n < 1 || hopLatency < 1 {
		return nil, fmt.Errorf("interconnect: invalid ring n=%d hopLatency=%d (both must be >= 1)", n, hopLatency)
	}
	return &Ring{
		n:      n,
		hopLat: uint64(hopLatency),
		cw:     newCalendars(n),
		ccw:    newCalendars(n),
	}, nil
}

// MustNewRing is NewRing but panics on error; for tests and internal callers
// with statically valid parameters.
func MustNewRing(n int, hopLatency int) *Ring {
	r, err := NewRing(n, hopLatency)
	if err != nil {
		panic(err)
	}
	return r
}

// Clusters returns the number of nodes.
func (r *Ring) Clusters() int { return r.n }

// Diameter implements Network: the farthest pair on a bidirectional ring is
// half way around.
func (r *Ring) Diameter() int { return r.n / 2 }

// Hops returns the shorter ring distance between a and b.
func (r *Ring) Hops(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := r.n - d; alt < d {
		return alt
	}
	return d
}

// cwDist returns the clockwise distance from a to b.
func (r *Ring) cwDist(a, b int) int {
	d := b - a
	if d < 0 {
		d += r.n
	}
	return d
}

// Send implements Network.
func (r *Ring) Send(ready uint64, a, b int) uint64 {
	if a == b {
		return ready
	}
	cw := r.cwDist(a, b)
	clockwise := cw <= r.n-cw
	hops := cw
	if !clockwise {
		hops = r.n - cw
	}
	arrive := r.traverse(ready, a, hops, clockwise)
	r.stats.Transfers++
	r.stats.Hops += uint64(hops)
	r.stats.LatencySum += arrive - ready
	return arrive
}

// traverse walks hops links from node a in the given direction, reserving
// each, and returns the final arrival cycle.
func (r *Ring) traverse(ready uint64, a, hops int, clockwise bool) uint64 {
	t := ready
	node := a
	for i := 0; i < hops; i++ {
		var cal Calendar
		var next int
		if clockwise {
			cal = r.cw[node]
			next = node + 1
			if next == r.n {
				next = 0
			}
		} else {
			cal = r.ccw[node]
			next = node - 1
			if next < 0 {
				next = r.n - 1
			}
		}
		depart := cal.Reserve(t)
		t = depart + r.hopLat
		node = next
	}
	return t
}

// Broadcast implements Network. The copy travels clockwise to cover the
// farther half of the active prefix and counter-clockwise for the rest,
// which is how a ring broadcast is physically realized.
func (r *Ring) Broadcast(ready uint64, a, active int) uint64 {
	if active <= 1 {
		return ready
	}
	// Distances to every active node; the worst clockwise and worst
	// counter-clockwise legs bound the broadcast.
	maxCW, maxCCW := 0, 0
	for b := 0; b < active; b++ {
		if b == a {
			continue
		}
		cw := r.cwDist(a, b)
		ccw := r.n - cw
		if cw <= ccw {
			if cw > maxCW {
				maxCW = cw
			}
		} else {
			if ccw > maxCCW {
				maxCCW = ccw
			}
		}
	}
	last := ready
	if maxCW > 0 {
		if t := r.traverse(ready, a, maxCW, true); t > last {
			last = t
		}
		r.stats.Transfers++
		r.stats.Hops += uint64(maxCW)
	}
	if maxCCW > 0 {
		if t := r.traverse(ready, a, maxCCW, false); t > last {
			last = t
		}
		r.stats.Transfers++
		r.stats.Hops += uint64(maxCCW)
	}
	r.stats.LatencySum += last - ready
	return last
}

// Utilization implements Network.
func (r *Ring) Utilization(from, to uint64) float64 {
	if to <= from {
		return 0
	}
	reserved := 0
	for i := range r.cw {
		reserved += r.cw[i].ReservedIn(from, to)
		reserved += r.ccw[i].ReservedIn(from, to)
	}
	return float64(reserved) / (float64(to-from) * float64(2*r.n))
}

// Stats implements Network.
func (r *Ring) Stats() Stats { return r.stats }

// Grid is a two-dimensional mesh with XY (dimension-ordered) routing.
type Grid struct {
	n      int    //simlint:nostate geometry, rebuilt by the constructor
	w, h   int    //simlint:nostate geometry, rebuilt by the constructor
	hopLat uint64 //simlint:nostate geometry, rebuilt by the constructor
	// Link calendars, indexed by node*4+direction, directions being
	// 0=east, 1=west, 2=south, 3=north.
	links []Calendar
	stats Stats
}

// NewGrid returns a grid network over n clusters laid out in the most
// square arrangement whose width*height >= n (4x4 for 16). Invalid
// parameters (n < 1 or hopLatency < 1) are a configuration error, reachable
// from the public API, and are reported as such rather than panicking.
func NewGrid(n int, hopLatency int) (*Grid, error) {
	if n < 1 || hopLatency < 1 {
		return nil, fmt.Errorf("interconnect: invalid grid n=%d hopLatency=%d (both must be >= 1)", n, hopLatency)
	}
	w := 1
	for w*w < n {
		w++
	}
	h := (n + w - 1) / w
	// Links cover every router position of the bounding w*h grid, not just
	// the n occupied ones: XY routing between occupied nodes may pass
	// through an unoccupied corner position (e.g. position 8 of the 3x3
	// layout for n=8), which still needs router links.
	return &Grid{
		n: n, w: w, h: h,
		hopLat: uint64(hopLatency),
		links:  newCalendars(w * h * 4),
	}, nil
}

// Clusters returns the number of nodes.
func (g *Grid) Clusters() int { return g.n }

func (g *Grid) coord(a int) (x, y int) { return a % g.w, a / g.w }

// Diameter implements Network: opposite corners under XY routing.
func (g *Grid) Diameter() int { return (g.w - 1) + (g.h - 1) }

// Hops returns the Manhattan distance between a and b.
func (g *Grid) Hops(a, b int) int {
	ax, ay := g.coord(a)
	bx, by := g.coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Send implements Network using XY routing: all horizontal hops first, then
// vertical.
func (g *Grid) Send(ready uint64, a, b int) uint64 {
	if a == b {
		return ready
	}
	arrive := g.route(ready, a, b)
	r := g.Hops(a, b)
	g.stats.Transfers++
	g.stats.Hops += uint64(r)
	g.stats.LatencySum += arrive - ready
	return arrive
}

func (g *Grid) route(ready uint64, a, b int) uint64 {
	ax, ay := g.coord(a)
	bx, by := g.coord(b)
	t := ready
	x, y := ax, ay
	for x != bx {
		dir := 0 // east
		nx := x + 1
		if bx < x {
			dir = 1 // west
			nx = x - 1
		}
		t = g.hop(t, y*g.w+x, dir)
		x = nx
	}
	for y != by {
		dir := 2 // south
		ny := y + 1
		if by < y {
			dir = 3 // north
			ny = y - 1
		}
		t = g.hop(t, y*g.w+x, dir)
		y = ny
	}
	return t
}

func (g *Grid) hop(t uint64, node, dir int) uint64 {
	depart := g.links[node*4+dir].Reserve(t)
	return depart + g.hopLat
}

// Broadcast implements Network with per-destination unicasts (a grid has no
// cheap hardware broadcast; the paper models broadcasts as added traffic,
// which unicasting reproduces conservatively).
func (g *Grid) Broadcast(ready uint64, a, active int) uint64 {
	if active <= 1 {
		return ready
	}
	last := ready
	for b := 0; b < active; b++ {
		if b == a {
			continue
		}
		if t := g.Send(ready, a, b); t > last {
			last = t
		}
	}
	return last
}

// Utilization implements Network.
func (g *Grid) Utilization(from, to uint64) float64 {
	if to <= from {
		return 0
	}
	reserved := 0
	for i := range g.links {
		reserved += g.links[i].ReservedIn(from, to)
	}
	return float64(reserved) / (float64(to-from) * float64(len(g.links)))
}

// Stats implements Network.
func (g *Grid) Stats() Stats { return g.stats }

var (
	_ Network = (*Ring)(nil)
	_ Network = (*Grid)(nil)
)
