package xag

// Dirty-region tracking: the rewriting engine reuses per-node state (cut
// lists, classifications) across rounds, which is sound only for nodes the
// round's substitutions left locally untouched. The network records, per
// epoch, which nodes were created and which were substituted; the engine
// reads that through NodeDirty and checks the wiring around each node
// itself (DESIGN.md §10). Tracking is off (zero cost beyond one branch in
// Substitute) until BeginDirtyEpoch is called.

type dirtyState struct {
	epoch uint32   // 0 = tracking off
	base  int      // nodes with id >= base were created in the current epoch
	stamp []uint32 // node id → epoch of the node's last substitution
}

// BeginDirtyEpoch starts (or restarts) dirty tracking: every node existing
// now is initially clean, and subsequent node creations and Substitute calls
// are recorded until the next BeginDirtyEpoch. The network should be compact
// (no pending substitutions) when an epoch begins, so that an edge resolving
// away from its stored target can only mean the target was substituted in
// this epoch.
func (n *Network) BeginDirtyEpoch() {
	n.dirty.epoch++
	if n.dirty.epoch == 0 { // wrapped: restart, stale stamps must not match
		for i := range n.dirty.stamp {
			n.dirty.stamp[i] = 0
		}
		n.dirty.epoch = 1
	}
	n.dirty.base = len(n.nodes)
}

// DirtyCreatedBase returns the node-count watermark of the current epoch:
// nodes with id >= base were created since BeginDirtyEpoch.
func (n *Network) DirtyCreatedBase() int { return n.dirty.base }

// NodeDirty reports whether the node was created or substituted in the
// current epoch. Always false while tracking is off.
func (n *Network) NodeDirty(id int) bool {
	if n.dirty.epoch == 0 {
		return false
	}
	if id >= n.dirty.base {
		return true
	}
	return id < len(n.dirty.stamp) && n.dirty.stamp[id] == n.dirty.epoch
}

// stampDirty records a substitution of id in the current epoch (no-op while
// tracking is off).
func (n *Network) stampDirty(id int) {
	if n.dirty.epoch == 0 {
		return
	}
	if len(n.dirty.stamp) < len(n.nodes) {
		n.dirty.stamp = append(n.dirty.stamp, make([]uint32, len(n.nodes)-len(n.dirty.stamp))...)
	}
	n.dirty.stamp[id] = n.dirty.epoch
}
