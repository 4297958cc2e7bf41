package hub

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// benchFleet draws a fleet like the benchmark ledger's hub workloads:
// half-sine queries of length qlen with amplitudes in [0.5, 3.5] at
// threshold 0.25, and streams of chunks — one in 16 a noisy query copy,
// dead of 16 a far excursion at +40, the rest in-band noise.
func benchFleet(streams, queries, qlen, points, dead int) ([]Query, [][]float64) {
	rng := rand.New(rand.NewSource(42))
	qs := make([]Query, queries)
	for i := range qs {
		amp, phase := 0.5+3*rng.Float64(), rng.Float64()*math.Pi
		vals := make([]float64, qlen)
		for j := range vals {
			vals[j] = amp * math.Abs(math.Sin(phase+math.Pi*float64(j)/float64(qlen-1)))
		}
		qs[i] = Query{ID: fmt.Sprintf("q%03d", i), Values: vals, Threshold: 0.25, MinGap: qlen}
	}
	data := make([][]float64, streams)
	for s := range data {
		v := make([]float64, 0, points+2*qlen)
		for len(v) < points {
			switch c := rng.Intn(16); {
			case c == 0:
				for _, x := range qs[rng.Intn(queries)].Values {
					v = append(v, x+0.01*rng.NormFloat64())
				}
			case c < 16-dead:
				for i := rng.Intn(48); i >= 0; i-- {
					v = append(v, 0.05*rng.NormFloat64())
				}
			default:
				for i := rng.Intn(48); i >= 0; i-- {
					v = append(v, 40+rng.Float64())
				}
			}
		}
		data[s] = v[:points]
	}
	return qs, data
}

// BenchmarkHubFleet pushes every stream of a fleet through a running
// hub; one op is one round, a 512-point batch on every stream, waited
// for until processed. dormant is the ledger's hub-dormant mix (13 of 16 chunks dead, most
// points dead for every query at once); live has no dead points.
func BenchmarkHubFleet(b *testing.B) {
	for _, tc := range []struct {
		name string
		dead int
	}{{"dormant", 13}, {"live", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			const streams, queries, qlen, points, batch = 200, 40, 16, 4096, 512
			qs, data := benchFleet(streams, queries, qlen, points, tc.dead)
			h := New(Config{})
			for _, q := range qs {
				if err := h.AddQuery(q); err != nil {
					b.Fatal(err)
				}
			}
			ids := make([]string, streams)
			for s := range ids {
				ids[s] = fmt.Sprintf("s%04d", s)
				if err := h.AddStream(ids[s]); err != nil {
					b.Fatal(err)
				}
			}
			runErr := make(chan error, 1)
			go func() { runErr <- h.Run(context.Background()) }()
			go func() {
				for range h.Matches() {
				}
			}()
			b.ResetTimer()
			var pushed int64
			for i := 0; i < b.N; i++ {
				off := i * batch % points
				for s := range ids {
					if err := h.PushBatch(ids[s], data[s][off:off+batch]); err != nil {
						b.Fatal(err)
					}
				}
				pushed += streams * batch
				for h.Stats().Processed < pushed {
					time.Sleep(20 * time.Microsecond)
				}
			}
			b.StopTimer()
			st := h.Stats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pushed), "ns/point")
			b.ReportMetric(float64(st.Skipped)/float64(st.Skipped+st.Appends), "skip_share")
			if err := h.Flush(context.Background()); err != nil {
				b.Fatal(err)
			}
			if err := <-runErr; err != nil {
				b.Fatal(err)
			}
		})
	}
}
