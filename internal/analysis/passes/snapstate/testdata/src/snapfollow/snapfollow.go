// Package snapfollow pins snapstate's follow rule: the walk from a codec
// follows methods of the same receiver, transitively, and nothing else.
package snapfollow

import "clustersim/internal/snap"

// Queue's codec reaches Depth through two same-receiver helper hops, which
// cover it. Peak is mentioned only by a free function the codec calls, and
// Tail only by another type's method: neither covers a field of Queue.
type Queue struct {
	Head  uint64
	Depth uint64
	Peak  uint64 // want `field Queue\.Peak is not serialized by the Queue snapshot codec`
	Tail  uint64 // want `field Queue\.Tail is not serialized by the Queue snapshot codec`
}

func (q *Queue) State(c *snap.Codec) {
	c.U64(&q.Head)
	c.U64(q.depth())
	c.U64(peak(q))
	c.U64(view{q}.tail())
}

func (q *Queue) depth() *uint64 { return q.depthSlot() }

func (q *Queue) depthSlot() *uint64 { return &q.Depth }

func peak(q *Queue) *uint64 { return &q.Peak }

// view has no codec, so nothing is required of it.
type view struct{ q *Queue }

func (v view) tail() *uint64 { return &v.q.Tail }
