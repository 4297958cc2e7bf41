package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"sdtw/internal/lower"
	"sdtw/internal/sketch"
)

// goldenRecord builds record k from exact binary fractions alone (no
// random source, no envelope or sketch arithmetic), so the file bytes
// it leads to depend on the store's encoding and nothing else. Lengths
// and labels vary with k; one label is negative.
func goldenRecord(k int) Record {
	n := 5 + k
	vals := make([]float64, n)
	up := make([]float64, n)
	lo := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i*(k+1))/4 - float64(k)
		up[i] = vals[i] + 0.5
		lo[i] = vals[i] - 0.25
	}
	return Record{
		ID:       "g" + strconv.Itoa(k),
		Label:    k - 2,
		Seq:      uint64(k),
		N:        n,
		First:    vals[0],
		Last:     vals[n-1],
		Sketch:   sketch.Sketch{Upper: []float64{float64(k) + 1, float64(k) + 2}, Lower: []float64{-float64(k), -float64(k) - 0.5}},
		Envelope: lower.Envelope{Upper: up, Lower: lo, Radius: 1},
		Values:   vals,
	}
}

// fileDigests returns the SHA-256 of every file in dir by name.
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

func checkDigests(t *testing.T, stage, dir string, want map[string]string) {
	t.Helper()
	got := fileDigests(t, dir)
	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: %s: sha256 %q, want %q", stage, name, got[name], want[name])
		}
	}
}

// TestStoreFormatGolden pins the on-disk bytes of every store file —
// manifest, each segment's hot and value file, and the tombstone log —
// over a script that crosses a seal, a sync, a tombstone, a reopen and
// a compaction. A change to any encoder fails here; a deliberate
// format revision updates the digests.
func TestStoreFormatGolden(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, Config{Fingerprint: "golden-fp", SketchWidth: 2, SegmentRecords: 2, Meta: map[string]string{"kind": "golden"}})
	for k := 0; k < 3; k++ {
		if err := st.Append(goldenRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Tombstone("g1", 1); err != nil {
		t.Fatal(err)
	}
	checkDigests(t, "after tombstone", dir, map[string]string{
		"MANIFEST.json":    "60fba7562a97687732b2164ec92eee2535bef256622ceddc537509d62c932293",
		"seg-00000001.hot": "0446704ecdc70fa98605937d85cf894dce2cc52b5d2c433d307b165485e04849",
		"seg-00000001.val": "2c5e6a92355ead3fc5c1e8b594c910f2498739147acc5fd61465f9d4ae1ed61d",
		"seg-00000002.hot": "be226bfc0ae1186514b74737f127ccf78093d72420a8747461bc460ce77c1adf",
		"seg-00000002.val": "80738789c67ece1f5414b1c7bfbe112ffe620555c369b35ba33f253c0b9e6a21",
		"tombstones.log":   "e075c886fb123a72991d189d85bd99fb11d79710a776305381105aef724a1830",
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = mustOpen(t, dir)
	if err := st.Append(goldenRecord(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	checkDigests(t, "after compact", dir, map[string]string{
		"MANIFEST.json":    "f6e4577d78d61fa5940f328d18d0fcf72b1774546f6434da082e2ab878e6b5c0",
		"seg-00000004.hot": "f0134cf20498191a6463138c0445dfb6809c95ad120e2274257966d3f186f5a9",
		"seg-00000004.val": "c6ec64c9ddf1dba79433e8a0b551f63eef4170730b7b2d7fa612b1895f01ed0e",
		"seg-00000005.hot": "5c3daf4307b28b45c9079b325741656242315e20000b00f3c55799c098e1140e",
		"seg-00000005.val": "e85425705d5103c629d3d2b452dc08c3b4c80fb6af348514b60f60a2ff6adfa6",
		"tombstones.log":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
