package sdtw

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"
)

// TestDistanceGolden holds the distances of every public configuration to
// the values they had when it was written. For each backend family — the
// six strategies, asymmetric and symmetric, the fixed-width ones at the
// default width and at 0.06 and 0.20, and the windowed family at radius 3
// and -1 — it searches a one-series index for each fixed generator pair and
// hashes the Float64bits of the distances together with the family's
// EnvelopeRadius. The table is keyed by the family's fingerprint, so a
// change that moves a distance or an envelope under an unchanged
// fingerprint fails here, as does one that renames a fingerprint.
//
// The hashes were taken on amd64. The Go compiler fuses multiply-adds on
// other architectures (arm64, ppc64le, s390x, riscv64), which can move the
// last bit of a distance, so the test runs on amd64 only.
func TestDistanceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden distance bits were taken on amd64, not %s", runtime.GOARCH)
	}
	gun := GunDataset(DatasetConfig{Seed: 21, SeriesPerClass: 2}).Series
	trace := TraceDataset(DatasetConfig{Seed: 22, SeriesPerClass: 1}).Series
	pairsOf := func(s []Series) [][2]Series {
		return [][2]Series{{s[0], s[1]}, {s[0], s[2]}, {s[1], s[3]}, {s[2], s[3]}}
	}
	gunPairs, tracePairs := pairsOf(gun), pairsOf(trace)

	const tail = "|bins=0|eps=0|oct=0|lev=0|amp=0|scale=0|dom=0|pd=false"
	want := map[string]string{
		"sdtw/v1|strategy=0|w=0|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:    "3c0810b2f92b2157",
		"sdtw/v1|strategy=0|w=0|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:     "3c0810b2f92b2157",
		"sdtw/v1|strategy=1|w=0.06|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail: "1a81552055b79542",
		"sdtw/v1|strategy=1|w=0.06|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:  "1a81552055b79542",
		"sdtw/v1|strategy=1|w=0.2|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:  "4bbada55bac8a887",
		"sdtw/v1|strategy=1|w=0.2|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:   "4bbada55bac8a887",
		"sdtw/v1|strategy=1|w=0|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:    "9ef87651f0bc0d4e",
		"sdtw/v1|strategy=1|w=0|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:     "9ef87651f0bc0d4e",
		"sdtw/v1|strategy=2|w=0|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:    "c13d5b3667f4cae5",
		"sdtw/v1|strategy=2|w=0|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:     "1a7e31184cb42e96",
		"sdtw/v1|strategy=3|w=0.06|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail: "9c716361db72003e",
		"sdtw/v1|strategy=3|w=0.06|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:  "bf252948fbcb1f6a",
		"sdtw/v1|strategy=3|w=0.2|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:  "54e60155ce572d21",
		"sdtw/v1|strategy=3|w=0.2|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:   "278fba994a6478c5",
		"sdtw/v1|strategy=3|w=0|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:    "61a31dca5d504972",
		"sdtw/v1|strategy=3|w=0|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:     "01a8549905a3a6bd",
		"sdtw/v2|strategy=4|w=0|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:    "1b3b7f3eb17a60d1",
		"sdtw/v2|strategy=4|w=0|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:     "678bd357276cd3c5",
		"sdtw/v2|strategy=5|w=0|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail:    "cd88f82f82c41be9",
		"sdtw/v2|strategy=5|w=0|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail:     "9c35dea873fbb505",
		"windowed/v1|len=150|radius=150":                                        "02771e3aeccb5e20",
		"windowed/v1|len=150|radius=3":                                          "57ffd32fa26ffcbc",
		"windowed/v1|len=275|radius=275":                                        "1b5efa761944c1aa",
		"windowed/v1|len=275|radius=3":                                          "f89d74da669b7694",
	}

	got := map[string]string{}
	record := func(f backendFamily, pairs [][2]Series, lengths ...int) {
		t.Helper()
		h := fnv.New64a()
		var buf [8]byte
		for _, p := range pairs {
			ix, err := newIndex(f, []Series{p[1]}, 0)
			if err != nil {
				t.Fatal(err)
			}
			nbrs, _, err := ix.Search(context.Background(), p[0], WithK(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(nbrs) != 1 || math.IsInf(nbrs[0].Distance, 0) || math.IsNaN(nbrs[0].Distance) {
				t.Fatalf("%s: %s vs %s: neighbours %v", f.backend.Fingerprint(), p[0].ID, p[1].ID, nbrs)
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(nbrs[0].Distance))
			h.Write(buf[:])
		}
		for _, m := range lengths {
			binary.LittleEndian.PutUint64(buf[:], uint64(f.backend.EnvelopeRadius(m)))
			h.Write(buf[:])
		}
		fp := f.backend.Fingerprint()
		if _, dup := got[fp]; dup {
			t.Fatalf("fingerprint %s recorded twice", fp)
		}
		got[fp] = fmt.Sprintf("%016x", h.Sum64())
	}

	for s := FullGrid; s <= AdaptiveCoreAdaptiveWidthAvg; s++ {
		widths := []float64{0}
		if s == FixedCoreFixedWidth || s == AdaptiveCoreFixedWidth {
			widths = append(widths, 0.06, 0.20)
		}
		for _, sym := range []bool{false, true} {
			for _, w := range widths {
				f, err := engineFamily(Options{Strategy: s, WidthFrac: w, Symmetric: sym, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				record(f, append(append([][2]Series(nil), gunPairs...), tracePairs...), len(gun[0].Values), len(trace[0].Values))
			}
		}
	}
	for _, r := range []int{3, -1} {
		for _, pairs := range [][][2]Series{gunPairs, tracePairs} {
			f, err := windowedFamilyOver([]Series{pairs[0][1]}, r)
			if err != nil {
				t.Fatal(err)
			}
			record(f, pairs, f.length)
		}
	}

	keys := make([]string, 0, len(got))
	for fp := range got {
		keys = append(keys, fp)
	}
	sort.Strings(keys)
	for _, fp := range keys {
		if w, ok := want[fp]; !ok {
			t.Errorf("no golden hash for %q (got %s)", fp, got[fp])
		} else if w != got[fp] {
			t.Errorf("distance hash of %q: got %s, want %s", fp, got[fp], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d families hashed, %d golden entries", len(got), len(want))
	}
}
