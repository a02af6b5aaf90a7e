package core

// Test seams for the lock layer's reference arms and the migration
// batch size. Each applies to one plane (a primary or a standby) after
// Deploy and before any plane traffic; the setting survives the plane's
// reshards.

// UnlockForTest reverts c to the unlocked validate→commit protocol,
// the one whose rename-vs-rename and rename-vs-remove races the
// interleaving replays reproduce. The plane drops its row-lock table
// and refuses to reshard.
func UnlockForTest(c *MDSCluster) {
	c.unlocked = true
	c.rowLocks = nil
}

// ExclusiveRowLocksForTest reverts c's row-lock table to exclusive-only
// locks: Shared read-dependency footprints (the parent directory's
// inode row under concurrent creates) take their rows exclusively, the
// serialization the shared/exclusive split removes.
func ExclusiveRowLocksForTest(c *MDSCluster) {
	c.exclusiveLocks = true
	if c.rowLocks != nil {
		c.rowLocks.ExclusiveOnly = true
	}
}

// ReshardBatchRowsForTest makes c's migrations move n groups per batch
// instead of 64, so a small tree crosses several batch boundaries.
func ReshardBatchRowsForTest(c *MDSCluster, n int) { c.reshardBatch = n }
