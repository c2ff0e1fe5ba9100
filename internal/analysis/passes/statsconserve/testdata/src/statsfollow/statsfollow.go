// Package statsfollow pins statsconserve's follow rule: only the bodies of
// the covering methods count, and embedded fields are out of scope.
package statsfollow

// Count is a numeric type that Stats embeds.
type Count uint64

// Stats covers Reads in Conserved itself; Writes is mentioned only by a
// helper method that Conserved calls, which does not cover it.
type Stats struct {
	Count
	Reads  uint64
	Writes uint64 // want `numeric field Stats\.Writes is missing from the Conserved/Merge identities`
}

// Conserved checks the read/write balance through a helper.
func (s *Stats) Conserved(accesses uint64) bool {
	return s.Reads+s.writes() == accesses
}

// writes is not a covering method.
func (s *Stats) writes() uint64 { return s.Writes }
