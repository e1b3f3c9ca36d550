package core

// peerCounters is the paper's ω_r triple (Section VII-B): for a local
// process P_l and a remote peer P_r, a single triple of 64-bit counters
// manages the whole epoch-matching history in O(1) time and space,
// regardless of how many epochs are pending between the two processes.
//
//	a — accesses requested from P_l to P_r (incremented locally when an
//	    access epoch toward P_r activates);
//	e — exposures opened from P_l toward P_r, including passive-target
//	    lock grants ("the host process of a lock still updates e_l
//	    locally and g_r remotely");
//	g — accesses granted to P_l by P_r (updated one-sidedly by P_r).
//
// Additionally doneRecv counts done packets received from P_r when P_r acts
// as an origin; since access ids are consecutive, the exposure with
// per-origin id k is complete as soon as doneRecv >= k, even if the done
// packet arrived before the exposure epoch was ever activated — this is the
// persistence property Section VII-B requires ("the granted access
// notification must persist for the origin to see it when it catches up").
type peerCounters struct {
	a        int64
	e        int64
	g        int64
	doneRecv int64
}

// nextAccessID allocates the access id A_i = ++a_l for a new activated
// access epoch toward this peer.
func (c *peerCounters) nextAccessID() int64 {
	c.a++
	return c.a
}

// nextExposureID allocates the per-origin exposure id (and lock-grant id)
// e_l for a newly activated exposure or granted lock toward this peer.
func (c *peerCounters) nextExposureID() int64 {
	c.e++
	return c.e
}

// granted reports whether access id A_i has been granted by the peer:
// A_i <= g_r means the peer has already granted this access "as well as all
// the k subsequent accesses (for k = g_r − A_i)".
func (c *peerCounters) granted(accessID int64) bool { return accessID <= c.g }

// recordGrant merges a grant notification carrying the peer's cumulative
// grant count and reports whether it advanced g. Counts are monotonic, so
// out-of-order delivery is harmless.
func (c *peerCounters) recordGrant(count int64) bool {
	fresh := count > c.g
	if fresh {
		c.g = count
	}
	return fresh
}

// recordDone merges a done packet carrying the origin's access id toward
// us; dones are cumulative for the same reason grants are.
func (c *peerCounters) recordDone(accessID int64) bool {
	fresh := accessID > c.doneRecv
	if fresh {
		c.doneRecv = accessID
	}
	return fresh
}

// exposureComplete reports whether the exposure with the given per-origin
// id has received its matching done packet.
func (c *peerCounters) exposureComplete(exposureID int64) bool {
	return c.doneRecv >= exposureID
}
