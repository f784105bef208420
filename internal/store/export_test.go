package store

// Syncs reports the batch-boundary fsyncs since open (DiskOptions.Sync).
func (d *Disk) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}
