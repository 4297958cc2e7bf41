// Serving: run the sdtwd search service in-process and drive it as a
// client — index a collection behind the sharded HTTP surface, search
// it over JSON, mutate it while searches keep flowing, and drain it
// gracefully the way SIGTERM does in production.
//
// The service shards the collection by hashing series IDs, runs every
// search as one cascade over all the shards' snapshots (one candidate
// queue, one best-so-far threshold, one worker pool), and serves reads
// from copy-on-write snapshots — an Add or Remove never blocks a search. Results are bit-identical to
// a single unsharded Index over the same collection.
//
// Run with:
//
//	go run ./examples/serving
//
// For the standalone daemon, see cmd/sdtwd.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"sdtw"
	"sdtw/internal/serve"
)

func main() {
	// A 4-way sharded index over the Trace workload. Hash routing needs
	// nothing configured: series IDs decide the shard.
	data := sdtw.TraceDataset(sdtw.DatasetConfig{Seed: 7, SeriesPerClass: 8})
	ix, err := sdtw.NewShardedIndex(data.Series, 4, sdtw.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection: %d series across %d shards, sizes %v\n\n",
		ix.Len(), ix.Shards(), ix.ShardSizes())

	// The serving layer: admission control (at most 8 searches in flight,
	// a bounded queue behind them, 429 beyond that) over the sharded
	// index. srv.Run is exactly what cmd/sdtwd wraps behind flags.
	srv := serve.New(ix, serve.Config{MaxInflight: 8})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0", 10*time.Second, ready) }()
	base := "http://" + <-ready
	fmt.Printf("serving on %s\n\n", base)

	post := func(path string, body any) map[string]any {
		b, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s: %d: %v", path, resp.StatusCode, out["error"])
		}
		return out
	}

	// A top-5 search over HTTP. The ID excludes the query's own indexed
	// copy; the response carries the cascade's work accounting alongside
	// the hits.
	q := data.Series[0]
	out := post("/v1/search", serve.SearchRequest{ID: q.ID, Values: q.Values, K: 5})
	fmt.Printf("top-5 for %s (class %d):\n", q.ID, q.Label)
	for _, h := range out["hits"].([]any) {
		hit := h.(map[string]any)
		fmt.Printf("  %-12s label=%v distance=%.3f\n", hit["id"], hit["label"], hit["distance"])
	}
	stats := out["stats"].(map[string]any)
	fmt.Printf("cascade: %v candidates, %.0f%% pruned before any DTW, %.2fms\n\n",
		stats["candidates"], 100*stats["prune_rate"].(float64), stats["wall_ms"])

	// Mutations go through the same surface and never block searches:
	// each Add/Remove publishes a fresh copy-on-write shard snapshot.
	post("/v1/add", serve.AddRequest{ID: "probe", Label: 99, Values: q.Values})
	out = post("/v1/search", serve.SearchRequest{ID: q.ID, Values: q.Values, K: 1})
	nearest := out["hits"].([]any)[0].(map[string]any)
	fmt.Printf("after add: nearest is %v at distance %v\n", nearest["id"], nearest["distance"])
	post("/v1/remove", serve.RemoveRequest{ID: "probe"})

	// Graceful drain: what SIGTERM triggers in cmd/sdtwd. The listener
	// closes, /healthz flips to 503 for the load balancer, in-flight
	// searches finish, then Run returns.
	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
