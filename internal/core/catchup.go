package core

// catchup is Step 3's exit rule, "the slave has caught up", as a pure state
// machine over the propagator's progress events — no clock, no sockets.
//
// The paper ends Step 3 when every SSB linked to the SSL has been propagated.
// Under sustained load that instant never comes (new syncsets keep linking,
// and the LSIR floor moves each time an old master transaction resolves), so
// the rule is a turnover: the debt is at or below lag at some observation —
// the mark, M = syncsets linked at that instant — and stays there at every
// later observation until the slave has applied all M. That is one full
// replacement of the SSL's contents, LSIR-held syncsets included, with the
// slave never more than lag behind; a single dip under the threshold while
// the backlog is still draining proves nothing and does not fire. Any
// excursion above lag discards the mark. An idle tenant (nothing linked
// that is not applied) satisfies the rule on the first observation.
type catchup struct {
	lag   int // flow.CatchupDebt (Middleware.catchupDebt)
	mark  int // syncsets linked when the debt was first seen <= lag
	armed bool
}

// observe feeds one (linked, applied, debt) snapshot and reports whether
// Step 4 may begin.
func (c *catchup) observe(linked, applied, debt int) bool {
	if debt > c.lag {
		c.armed = false
		return false
	}
	if !c.armed {
		c.armed, c.mark = true, linked
	}
	return applied >= c.mark
}
