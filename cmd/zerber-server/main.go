// Command zerber-server runs one Zerber index server.
//
// Each of the n servers in a deployment runs this binary on a box owned
// by a different part of the enterprise (paper §5). All servers share the
// enterprise authentication key and replicate the group table; each has
// its own unique x-coordinate.
//
// Usage:
//
//	zerber-server -addr :8291 -x 1 -key 000102...1f \
//	              -groups alice:1,alice:2,bob:2
//
// The listener speaks the binary framed protocol, the one wire an index
// server serves; clients dial it with a bare host:port or a binary://
// address. See the "Wire protocol" section of the zerber package docs.
//
// -store-engine picks where the shares live. sharded (the default)
// keeps them in RAM: the index dies with the process. disk is
// the durable configuration: it keeps the shares in RAM as well and
// logs every mutation to one CRC-framed log file under -store-dir
// (default <name>.store), a restart on the same directory replays
// it, and every acknowledged mutation has been fsynced first — one
// fsync per Apply call. See the Durability section
// of package server for the exact contract.
//
// The key is the 32-byte hex HMAC key of the enterprise authentication
// service. zerber-peer and zerber-search take the same key with their
// -key flag and mint their user's token from it; a server only verifies
// tokens, each of which carries its own expiry.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"

	"zerber/internal/auth"
	"zerber/internal/field"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
)

func main() {
	var (
		addr   = flag.String("addr", ":8291", "listen address")
		x      = flag.Uint64("x", 1, "this server's public Shamir x-coordinate (unique, non-zero)")
		keyHex = flag.String("key", "", "32-byte hex HMAC key of the enterprise auth service")
		groups = flag.String("groups", "", "comma-separated user:group memberships, e.g. alice:1,bob:2")
		name   = flag.String("name", "", "server name for logs (default ix<x>)")
		engine = flag.String("store-engine", "sharded", "storage engine: sharded (in memory) or disk; disk is crash-recoverable and fsyncs every acknowledged mutation")
		stdir  = flag.String("store-dir", "", "log directory for -store-engine disk (default <name>.store)")
	)
	flag.Parse()

	if *keyHex == "" {
		log.Fatal("zerber-server: -key is required (shared enterprise auth key)")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil || len(key) < 16 {
		log.Fatalf("zerber-server: bad -key: %v (need >= 16 hex bytes)", err)
	}
	xe, err := field.Check(*x)
	if err != nil || xe == 0 {
		log.Fatalf("zerber-server: bad -x %d: must be a non-zero canonical field element", *x)
	}
	if *name == "" {
		*name = fmt.Sprintf("ix%d", *x)
	}

	gt, memberships, err := auth.ParseGroups(*groups)
	if err != nil {
		log.Fatalf("zerber-server: -groups: %v", err)
	}

	if *stdir == "" {
		*stdir = *name + ".store"
	}
	var st store.Store
	if *engine == "disk" {
		// Sync: an acknowledged Apply has been fsynced.
		st, err = store.OpenDisk(*stdir, store.DiskOptions{Sync: true})
	} else {
		st, err = store.NewEngine(*engine, *stdir)
	}
	if err != nil {
		log.Fatalf("zerber-server: %v", err)
	}
	api := server.New(server.Config{
		Name:   *name,
		X:      xe,
		Auth:   auth.NewServiceWithKey(key, 0), // verify only: a token carries its own expiry
		Groups: gt,
		Store:  st,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("zerber-server: %v", err)
	}
	log.Printf("zerber-server %s: listening on %s (binary transport, x=%d, %d group memberships)",
		*name, ln.Addr(), xe, memberships)
	transport.ServeBinary(ln, api)
	select {} // serve until killed
}
