// Command sdtwd serves sDTW similarity search over HTTP: an N-way
// sharded index behind JSON endpoints, with bounded-admission
// backpressure and graceful drain on SIGTERM.
//
//	sdtwd -addr :8080 -shards 4                 # empty engine-backed index
//	sdtwd -store idx.store                      # serve a sharded segment store
//	sdtwd -store widx.store -backend windowed   # serve a windowed sharded store
//	sdtwd -store idx.store -allow-quarantine    # serve around quarantined segments
//
// Endpoints:
//
//	POST /v1/search   body {"values":[...], "k":5}           → top-k hits + cascade stats
//	POST /v1/add      body {"id":"s-1","label":0,"values":[...]}
//	POST /v1/remove   body {"id":"s-1"}
//	GET  /v1/stats    collection, shard balance, admission counters, store health
//	GET  /healthz     200 (degraded:true when serving around quarantine), 503 once draining
//
// On SIGTERM or SIGINT the listener closes, /healthz flips to 503, and
// in-flight searches run to completion; after -drain-timeout any still
// running are cancelled through the DP's cancellation checks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdtw"
	"sdtw/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		shards       = flag.Int("shards", 4, "shard count for a fresh index (ignored with -store)")
		workers      = flag.Int("workers", 0, "DP worker budget per search (0 = GOMAXPROCS)")
		backend      = flag.String("backend", "engine", "index backend: engine | windowed")
		storeDir     = flag.String("store", "", "serve a sharded segment store directory (ShardedIndex.SaveStore format)")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrent searches (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "max searches queued for a slot before 429 (0 = 4x max-inflight)")
		defaultK     = flag.Int("default-k", 1, "k when a search request sets neither k nor threshold")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight searches")
		quarantine   = flag.Bool("allow-quarantine", false,
			"serve degraded around corrupt sealed segments (quarantined, reported via /v1/stats and /healthz) instead of refusing to start")
	)
	flag.Parse()

	ix, err := buildIndex(*backend, *storeDir, *shards, *workers, *quarantine)
	if err != nil {
		log.Fatalf("sdtwd: %v", err)
	}
	if ix.StoreBacked() {
		if stats, err := ix.StoreStats(); err == nil && stats.Health.Degraded() {
			log.Printf("sdtwd: DEGRADED: %d quarantined segments hold %d records back from serving (run `sdtw fsck` to inspect)",
				stats.Health.Quarantined, stats.Health.QuarantinedRecords)
		}
		defer func() {
			if err := ix.CloseStore(); err != nil {
				log.Printf("sdtwd: closing store: %v", err)
			}
		}()
	}
	srv := serve.New(ix, serve.Config{
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		DefaultK:    *defaultK,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, *addr, *drainTimeout, ready) }()
	log.Printf("sdtwd: serving %d series across %d shards on %s (backend=%s)",
		ix.Len(), ix.Shards(), <-ready, *backend)

	<-ctx.Done()
	stop() // a second signal now kills the process the default way
	log.Printf("sdtwd: draining (timeout %s)", *drainTimeout)
	if err := <-done; err != nil {
		log.Fatalf("sdtwd: drain incomplete: %v", err)
	}
	log.Printf("sdtwd: drained cleanly")
}

func buildIndex(backend, storeDir string, shards, workers int, quarantine bool) (*sdtw.ShardedIndex, error) {
	opts := sdtw.DefaultOptions()
	opts.Workers = workers
	var open []sdtw.OpenOption
	if quarantine {
		open = append(open, sdtw.AllowQuarantine())
	}
	switch {
	case backend != "engine" && backend != "windowed":
		return nil, fmt.Errorf("unknown -backend %q (want engine or windowed)", backend)
	case storeDir == "" && backend == "windowed":
		return nil, fmt.Errorf("-backend windowed needs -store: the stored series length fixes the window geometry")
	case storeDir == "":
		return sdtw.NewShardedIndex(nil, shards, opts)
	case backend == "windowed":
		return sdtw.OpenShardedWindowedIndex(storeDir, open...)
	default:
		return sdtw.OpenShardedIndex(storeDir, opts, open...)
	}
}
