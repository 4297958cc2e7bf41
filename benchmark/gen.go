package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"sdtw"
)

// inputHash accumulates the generated inputs of a run into one digest,
// so two runs can prove they measured the same inputs.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) floats(v []float64) {
	buf := make([]byte, 0, 8*len(v))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	ih.h.Write(buf)
}

func (ih *inputHash) series(data []sdtw.Series) {
	for _, s := range data {
		ih.h.Write([]byte(s.ID))
		ih.floats([]float64{float64(s.Label), float64(len(s.Values))})
		ih.floats(s.Values)
	}
}

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }

// labeled generates perClass+hold instances per class of a paper-shaped
// data set and splits them: the first perClass of each class are the
// collection, the last hold are held-out queries — same generator, same
// seed, never members of the collection. Queries come back interleaved
// across classes so any prefix of them is class-balanced.
func labeled(name string, perClass, hold, length int, seed int64) (coll, queries []sdtw.Series, err error) {
	d, err := sdtw.DatasetByName(name, sdtw.DatasetConfig{Seed: seed, SeriesPerClass: perClass + hold, Length: length})
	if err != nil {
		return nil, nil, err
	}
	byClass := make([][]sdtw.Series, d.NumClasses)
	for _, s := range d.Series {
		byClass[s.Label] = append(byClass[s.Label], s)
	}
	for _, ss := range byClass {
		if len(ss) != perClass+hold {
			return nil, nil, fmt.Errorf("generator %s gave %d instances of a class, want %d", name, len(ss), perClass+hold)
		}
		coll = append(coll, ss[:perClass]...)
	}
	for k := 0; k < hold; k++ {
		for _, ss := range byClass {
			queries = append(queries, ss[perClass+k])
		}
	}
	return coll, queries, nil
}

// Fleet stream shape (the hub experiment of cmd/sdtwbench, PR 9): query
// values stay inside [0, ~3.5] while dead excursions sit at +40, so one
// dead point admissibly rules out every standing query at once.
const (
	fleetThreshold = 0.25
	fleetBatch     = 512
	fleetDeadLevel = 40.0
)

// fleet is one generated hub workload: the standing queries and, per
// stream, a ring of points the pushers cycle through batch by batch.
type fleet struct {
	queries []sdtw.Series
	streams [][]float64
}

// makeFleet synthesises a fleet deterministically from the seed. Every
// stream is built chunk-wise from three kinds of chunk: a slightly
// warped plant of a random standing query (1 in 16), in-band noise that
// matches nothing but cannot be skipped, and — unless live — far
// excursions the time-domain prefilter proves matchless. dead of every
// 16 chunks are excursions: PR 9's dead-heavy mix is dead=13, the live
// mix is dead=0.
func makeFleet(streams, queries, queryLen, points, dead int, seed int64) fleet {
	f := fleet{queries: make([]sdtw.Series, queries), streams: make([][]float64, streams)}
	rng := rand.New(rand.NewSource(seed))
	for q := range f.queries {
		amp := 0.5 + 3.0*rng.Float64()
		phase := rng.Float64() * math.Pi
		vals := make([]float64, queryLen)
		for j := range vals {
			vals[j] = amp * math.Abs(math.Sin(phase+math.Pi*float64(j)/float64(queryLen-1)))
		}
		f.queries[q] = sdtw.NewSeries(fmt.Sprintf("q%03d", q), 0, vals)
	}
	for s := range f.streams {
		srng := rand.New(rand.NewSource(seed + 1 + int64(s)))
		data := make([]float64, 0, points+2*queryLen)
		for len(data) < points {
			switch c := srng.Intn(16); {
			case c == 0:
				for _, v := range f.queries[srng.Intn(queries)].Values {
					data = append(data, v+0.01*srng.NormFloat64())
					if srng.Intn(8) == 0 {
						data = append(data, v) // warp: repeat a point
					}
				}
			case c < 16-dead:
				for i := srng.Intn(48); i >= 0; i-- {
					data = append(data, 0.05*srng.NormFloat64())
				}
			default:
				for i := srng.Intn(48); i >= 0; i-- {
					data = append(data, fleetDeadLevel+srng.Float64())
				}
			}
		}
		f.streams[s] = data[:points]
	}
	return f
}

func (f fleet) hash(ih *inputHash) {
	ih.series(f.queries)
	for _, s := range f.streams {
		ih.floats(s)
	}
}

// batch returns the r-th batch of stream s, cycling through its ring.
func (f fleet) batch(s, r int) []float64 {
	data := f.streams[s]
	n := len(data) / fleetBatch
	off := (r % n) * fleetBatch
	return data[off : off+fleetBatch]
}
