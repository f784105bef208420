package store

// Syncs reports the fsyncs of the log since open.
func (d *Disk) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fsyncs
}
