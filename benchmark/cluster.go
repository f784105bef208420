package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

// Cluster shape: three index servers, any two reconstruct.
const (
	numServers = 3
	threshold  = 2
)

// cluster is a real Zerber deployment in one process, hand-wired from
// the layers' public constructors: every server owns a store, sits
// behind a loopback listener speaking the binary wire, and is reached
// over one pipelined connection that all clients and peers share.
type cluster struct {
	in     *inputs
	dir    string
	table  *merging.Table
	voc    *vocab.Vocabulary
	auth   *auth.Service
	groups *auth.GroupTable
	stores []store.Store
	disks  []*store.Disk
	lns    []*transport.BinaryServer
	conns  []*transport.BinaryClient
	tr     *tracer // nil in timed runs: no decorator is installed at all
}

// newCluster builds the mapping table from the inputs' public document
// frequencies and starts the servers. dir receives journals and, with
// disk set, the segment files.
func newCluster(in *inputs, disk bool, dir string, tr *tracer) (*cluster, error) {
	dist, err := confidential.NewDistribution(in.docFreqs())
	if err != nil {
		return nil, fmt.Errorf("term distribution: %w", err)
	}
	// The facade's defaults: depth-first merging with a target of 4/M
	// probability mass per list.
	table, err := merging.Build(dist, merging.Options{
		Heuristic: merging.DFM,
		M:         in.sc.lists,
		R:         float64(in.sc.lists) / 4,
		Seed:      in.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("mapping table: %w", err)
	}
	svc, err := auth.NewService(0)
	if err != nil {
		return nil, fmt.Errorf("auth service: %w", err)
	}
	c := &cluster{
		in: in, dir: dir, table: table, tr: tr,
		voc:    vocab.NewFromTerms(table.ListedTerms()),
		auth:   svc,
		groups: auth.NewGroupTable(),
	}
	for i := 0; i < numServers; i++ {
		var st store.Store
		if disk {
			d, err := store.OpenDisk(filepath.Join(dir, fmt.Sprintf("store%d", i)), store.DiskOptions{
				CacheBytes:   in.sc.cacheBytes,
				SegmentBytes: in.sc.segmentBytes,
			})
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("disk store %d: %w", i, err)
			}
			c.disks = append(c.disks, d)
			st = d
		} else {
			st = store.NewSharded(0)
		}
		c.stores = append(c.stores, st)
		if tr != nil {
			st = &tracedStore{Store: st, t: tr, server: i}
		}
		var api transport.API = server.New(server.Config{
			Name:   fmt.Sprintf("ix%d", i+1),
			X:      field.Element(i + 1),
			Auth:   svc,
			Groups: c.groups,
			Store:  st,
		})
		if tr != nil {
			api = &tracedServer{API: api, t: tr, server: i}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("listening for server %d: %w", i, err)
		}
		c.lns = append(c.lns, transport.ServeBinary(ln, api))
		conn, err := transport.DialBinary(ln.Addr().String(), 30*time.Second)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dialing server %d: %w", i, err)
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

// apis returns the server connections as one consumer sees them. In a
// traced run each consumer gets its own decorators (sharing the
// connections underneath) so its calls can be attributed: slot is nil
// for a search client, whose spans travel in the context.
func (c *cluster) apis(slot *atomic.Pointer[span], counts *wireCounts) []transport.API {
	out := make([]transport.API, len(c.conns))
	for i, conn := range c.conns {
		if c.tr == nil {
			out[i] = conn
		} else {
			out[i] = &tracedAPI{API: conn, t: c.tr, server: i, slot: slot, counts: counts}
		}
	}
	return out
}

// addUser registers a user in the given groups and issues their token.
func (c *cluster) addUser(name string, groups []uint32) auth.Token {
	for _, g := range groups {
		c.groups.Add(auth.UserID(name), auth.GroupID(g))
	}
	return c.auth.Issue(auth.UserID(name))
}

func (c *cluster) newClient(counts *wireCounts) (*client.Client, error) {
	return client.New(c.apis(nil, counts), threshold, c.table, c.voc)
}

func (c *cluster) newPeer(name string, journaled bool, slot *atomic.Pointer[span], counts *wireCounts) (*peer.Peer, string, error) {
	cfg := peer.Config{
		Name:    name,
		Servers: c.apis(slot, counts),
		K:       threshold,
		Table:   c.table,
		Vocab:   c.voc,
	}
	if journaled {
		cfg.JournalPath = filepath.Join(c.dir, name+".journal")
	}
	p, err := peer.New(cfg)
	if err != nil {
		return nil, "", fmt.Errorf("peer %s: %w", name, err)
	}
	return p, cfg.JournalPath, nil
}

// Close stops the listeners, closes the connections and stores, and
// removes the cluster's directory.
func (c *cluster) Close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	for _, ln := range c.lns {
		ln.Close()
	}
	for _, d := range c.disks {
		d.Close()
	}
	os.RemoveAll(c.dir)
}
