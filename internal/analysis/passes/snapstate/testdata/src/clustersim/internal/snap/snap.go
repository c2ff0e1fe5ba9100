// Package snap stubs the two-way snapshot codec for the snapstate fixture.
package snap

// Codec stands in for the real codec: snapstate recognizes a codec by its
// *Codec parameter alone.
type Codec struct{}

// U64 carries one word.
func (c *Codec) U64(p *uint64) {}

// FixedU64s carries a configuration-sized table.
func (c *Codec) FixedU64s(s []uint64, what string) {}
