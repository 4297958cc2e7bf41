// Fleet streaming: many independent streams matched against shared
// standing queries in one process through sdtw.Hub — pooled SPRING
// state, a time-domain prefilter, and backpressured batch ingestion.
//
// By default the program drives itself: it synthesizes a fleet of
// sensor-like streams, plants warped occurrences of the standing
// patterns into some of them, pushes everything through the hub and
// reports the matches plus throughput/prefilter statistics.
//
// It can also ingest real data, one line per batch, formatted
//
//	<stream-id> <v1> <v2> ...
//
// either from stdin (sdtwgen writes UCR lines, "label,v1,v2,...": with
// the commas turned into spaces each class label becomes a stream):
//
//	go run ./cmd/sdtwgen | tr ',' ' ' | go run ./examples/fleet -stdin
//
// or from a TCP socket shared by any number of producers:
//
//	go run ./examples/fleet -listen :7071 &
//	printf 'sensor-1 0.1 0.9 0.2\n' | nc localhost 7071
//
// Unknown stream IDs are added on first sight; closing the input (or
// SIGINT) flushes the hub and prints the final accounting.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"sdtw"
)

func main() {
	var (
		streams   = flag.Int("streams", 64, "synthetic mode: number of streams")
		points    = flag.Int("points", 20000, "synthetic mode: points per stream")
		threshold = flag.Float64("threshold", 0.25, "match threshold (subsequence DTW distance)")
		listen    = flag.String("listen", "", "ingest line batches from this TCP address instead of synthesizing")
		stdin     = flag.Bool("stdin", false, "ingest line batches from stdin instead of synthesizing")
		maxPrint  = flag.Int("print", 12, "print at most this many matches (0 silences them)")
	)
	flag.Parse()

	hub := sdtw.NewHub(sdtw.Options{})

	// Standing queries: two short shape patterns every stream is watched
	// for. Real deployments would AddQuery/RemoveQuery at runtime too.
	patterns := map[string][]float64{
		"spike": {0, 0.4, 1.6, 0.4, 0},
		"step":  {0, 0, 0, 1, 1, 1},
	}
	for id, vals := range patterns {
		if err := hub.AddQuery(id, sdtw.NewSeries(id, 0, vals),
			sdtw.WithMatchThreshold(*threshold), sdtw.WithMinGap(len(vals))); err != nil {
			log.Fatal(err)
		}
	}

	runErr := make(chan error, 1)
	go func() { runErr <- hub.Run(context.Background()) }()

	// Consume matches as they confirm — a slow consumer here is exactly
	// what turns into ErrHubBackpressure at the producers.
	var printed, delivered int
	var consumeWG sync.WaitGroup
	consumeWG.Add(1)
	go func() {
		defer consumeWG.Done()
		for m := range hub.Matches() {
			delivered++
			if printed < *maxPrint {
				printed++
				fmt.Printf("match: stream=%-10s query=%-6s [%d,%d] dist=%.4f\n",
					m.Stream, m.Query, m.Start, m.End, m.Distance)
			}
		}
	}()

	start := time.Now()
	switch {
	case *listen != "":
		serveTCP(hub, *listen)
	case *stdin:
		ingestLines(hub, bufio.NewScanner(os.Stdin), "stdin")
	default:
		synthesize(hub, patterns, *streams, *points)
	}

	if err := hub.Flush(context.Background()); err != nil {
		log.Fatalf("flush: %v", err)
	}
	consumeWG.Wait()
	if err := <-runErr; err != nil {
		log.Fatalf("run: %v", err)
	}
	elapsed := time.Since(start)

	st := hub.Stats()
	fmt.Printf("\n%d matches delivered (%d printed)\n", delivered, printed)
	fmt.Printf("points:   %d accepted, %d rejected (backpressure), %.0f points/sec\n",
		st.Points, st.Rejected, float64(st.Processed)/elapsed.Seconds())
	appends := st.Appends + st.Skipped
	if appends > 0 {
		fmt.Printf("prefilter: %d of %d column advances skipped (%.1f%%)\n",
			st.Skipped, appends, 100*float64(st.Skipped)/float64(appends))
	}
	for _, q := range st.PerQuery {
		fmt.Printf("  query %-6s matches=%-5d appends=%-9d skipped=%d\n", q.ID, q.Matches, q.Appends, q.Skipped)
	}
}

// synthesize drives the hub with a generated fleet: noisy near-zero
// baselines with far excursions (dead stretches the prefilter elides)
// and warped plants of the standing patterns.
func synthesize(hub *sdtw.Hub, patterns map[string][]float64, streams, points int) {
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		id := fmt.Sprintf("sensor-%03d", s)
		if err := hub.AddStream(id); err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id string, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]float64, 0, 256)
			for pushed := 0; pushed < points; pushed, batch = pushed+len(batch), batch[:0] {
				switch rng.Intn(20) {
				case 0: // plant a (slightly warped) pattern occurrence
					for _, name := range []string{"spike", "step"} {
						if rng.Intn(2) == 0 {
							for _, v := range patterns[name] {
								batch = append(batch, v)
								if rng.Intn(4) == 0 {
									batch = append(batch, v) // warp: repeat a point
								}
							}
						}
					}
				case 1, 2, 3: // far excursion: provably matchless, prefilter food
					for i := rng.Intn(64); i >= 0; i-- {
						batch = append(batch, 40+rng.Float64())
					}
				default: // in-band noise
					for i := rng.Intn(64); i >= 0; i-- {
						batch = append(batch, rng.NormFloat64()*0.05)
					}
				}
				pushAll(hub, id, batch)
			}
		}(id, int64(s))
	}
	wg.Wait()
}

// pushAll pushes one batch, waiting out backpressure.
func pushAll(hub *sdtw.Hub, id string, batch []float64) {
	for {
		err := hub.PushBatch(id, batch)
		if err == nil {
			return
		}
		if !errors.Is(err, sdtw.ErrHubBackpressure) {
			log.Fatalf("push %s: %v", id, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// ingestLines feeds "<stream-id> <v1> <v2> ..." lines into the hub,
// adding streams on first sight.
func ingestLines(hub *sdtw.Hub, sc *bufio.Scanner, src string) {
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	seen := map[string]bool{}
	batch := make([]float64, 0, 1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		id := fields[0]
		if !seen[id] {
			if err := hub.AddStream(id); err != nil && !errors.Is(err, sdtw.ErrDuplicateID) {
				log.Printf("%s: add stream %q: %v", src, id, err)
				continue
			}
			seen[id] = true
		}
		batch = batch[:0]
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				log.Printf("%s: stream %q: bad value %q", src, id, f)
				continue
			}
			batch = append(batch, v)
		}
		pushAll(hub, id, batch)
	}
	if err := sc.Err(); err != nil {
		log.Printf("%s: %v", src, err)
	}
}

// serveTCP accepts line-batch producers until SIGINT.
func serveTCP(hub *sdtw.Hub, addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s — send lines '<stream-id> <v1> <v2> ...'; SIGINT to flush\n", ln.Addr())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	go func() {
		<-stop
		ln.Close()
	}()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed by SIGINT
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			ingestLines(hub, bufio.NewScanner(conn), conn.RemoteAddr().String())
		}(conn)
	}
	wg.Wait()
}
