package interconnect

import "clustersim/internal/snap"

// Checkpoint support: a network's dynamic state is its link calendars (the
// in-flight reservation horizon) and its cumulative statistics. Geometry
// (node count, hop latency) is configuration and is rebuilt by the
// constructor, so a load only verifies that calendar shapes match.

func (s *Stats) state(c *snap.Codec) {
	c.U64(&s.Transfers)
	c.U64(&s.Hops)
	c.U64(&s.LatencySum)
}

// StateCalendars carries a configuration-sized list of calendars, each of
// configuration-sized length.
func StateCalendars(c *snap.Codec, cals []Calendar, what string) {
	c.Len(len(cals), what+"s")
	for _, cal := range cals {
		c.FixedU64s(cal, what)
	}
}

// State implements snap.Stater.
func (r *Ring) State(c *snap.Codec) {
	c.Mark("ring")
	StateCalendars(c, r.cw, "ring cw link")
	StateCalendars(c, r.ccw, "ring ccw link")
	r.stats.state(c)
}

// State implements snap.Stater.
func (g *Grid) State(c *snap.Codec) {
	c.Mark("grid")
	StateCalendars(c, g.links, "grid link")
	g.stats.state(c)
}
