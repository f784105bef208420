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
// -transport selects the wire codec the listener serves: binary (the
// default framed protocol; clients dial it with a bare host:port or
// binary:// address) or http (the JSON debug transport; clients dial
// http://). See the "Wire protocol" section of the zerber package docs.
//
// -store-engine picks where the shares live. sharded (the default)
// keeps them in RAM: the index dies with the process. disk is
// the durable configuration: the shares live in CRC-framed segment
// files under -store-dir (default <name>.store), a restart on the same
// directory replays them, and every acknowledged mutation has been
// fsynced first — one fsync per Apply call. See the Durability section
// of package server for the exact contract.
//
// The key is the 32-byte hex HMAC key of the enterprise authentication
// service (see cmd/zerber-search -issue for minting matching tokens).
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

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
		ttl    = flag.Duration("token-ttl", time.Hour, "token lifetime")
		engine = flag.String("store-engine", "sharded", "storage engine: sharded (in memory) or disk; disk is crash-recoverable and fsyncs every acknowledged mutation")
		stdir  = flag.String("store-dir", "", "segment directory for -store-engine disk (default <name>.store)")
		wire   = flag.String("transport", "binary", "wire codec served on -addr: binary or http")
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

	gt := auth.NewGroupTable()
	memberships := 0
	if *groups != "" {
		for _, pair := range strings.Split(*groups, ",") {
			parts := strings.SplitN(strings.TrimSpace(pair), ":", 2)
			if len(parts) != 2 {
				log.Fatalf("zerber-server: bad -groups entry %q (want user:group)", pair)
			}
			gid, err := strconv.ParseUint(parts[1], 10, 32)
			if err != nil {
				log.Fatalf("zerber-server: bad group ID in %q: %v", pair, err)
			}
			if !gt.IsMember(auth.UserID(parts[0]), auth.GroupID(gid)) {
				gt.Add(auth.UserID(parts[0]), auth.GroupID(gid))
				memberships++
			}
		}
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
		Auth:   auth.NewServiceWithKey(key, *ttl),
		Groups: gt,
		Store:  st,
	})
	if *wire != "binary" && *wire != "http" {
		log.Fatalf("zerber-server: unknown -transport %q (want binary or http)", *wire)
	}
	log.Printf("zerber-server %s: listening on %s (%s transport, x=%d, %d group memberships)",
		*name, *addr, *wire, xe, memberships)
	if *wire == "binary" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatalf("zerber-server: %v", err)
		}
		transport.ServeBinary(ln, api)
		select {} // serve until killed
	}
	log.Fatal(http.ListenAndServe(*addr, transport.NewHTTPHandler(api)))
}
