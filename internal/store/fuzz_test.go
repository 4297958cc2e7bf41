package store

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"sdtw/internal/vfs"
)

// FuzzStoreRecovery damages the active segment of a valid,
// tombstone-free store — truncating its hot or value file, or flipping
// bytes in either, at offsets the fuzzer picks — and checks that Verify
// and Open agree on the result: Verify never panics, Open fails exactly
// when Verify found an issue that is not Repairable, and an Open that
// succeeds serves Verify's record count and leaves a store a second
// Verify finds clean.
//
// The input is a sequence of 4-byte edits: byte 0 picks the file (bit 0:
// hot or value) and the edit (bit 1: truncate or flip), bytes 1-2 are a
// little-endian offset (taken modulo the file length, plus one for a
// truncation), and byte 3 is the flip mask (0 flips the low bit).
func FuzzStoreRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})          // flip the first hot header byte
	f.Add([]byte{2, 30, 0, 0})         // hot file cut inside the header
	f.Add([]byte{2, 0xff, 0x01, 0})    // hot file cut inside a record
	f.Add([]byte{3, 4, 0, 0})          // value file cut inside the magic
	f.Add([]byte{1, 0x40, 0x01, 0x80}) // a value block bit flip
	f.Add([]byte{0, 0x20, 0x02, 0x10}) // a hot record bit flip
	f.Add([]byte{3, 0x20, 0x01, 0, 2, 0x60, 0x02, 0})
	f.Fuzz(func(t *testing.T, edits []byte) {
		fs := vfs.NewFaultFS(1)
		dir := "store"
		st, err := Create(dir, Config{Fingerprint: "fuzz", SketchWidth: 2, SegmentRecords: 4, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		// Sealed segment 1 holds 4 records, active segment 2 holds 3.
		for i := 0; i < 7; i++ {
			if err := st.Append(goldenRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		for ; len(edits) >= 4; edits = edits[4:] {
			ext := "hot"
			if edits[0]&1 == 1 {
				ext = "val"
			}
			path := filepath.Join(dir, segName(2, ext))
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := int(binary.LittleEndian.Uint16(edits[1:]))
			if edits[0]&2 == 2 {
				data = data[:off%(len(data)+1)]
			} else if len(data) > 0 {
				mask := edits[3]
				if mask == 0 {
					mask = 1
				}
				data[off%len(data)] ^= mask
			}
			if err := fs.WriteFile(path, data); err != nil {
				t.Fatal(err)
			}
		}

		rep, err := Verify(dir, fs)
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		st, err = OpenWith(dir, OpenOptions{FS: fs})
		if (err != nil) != !rep.Repairable() {
			t.Fatalf("open error %v, but verify found repairable=%v: %+v", err, rep.Repairable(), rep.Issues)
		}
		if err != nil {
			return
		}
		live := len(st.Live())
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if live != rep.Records {
			t.Fatalf("open serves %d records, verify counted %d: %+v", live, rep.Records, rep.Issues)
		}
		after, err := Verify(dir, fs)
		if err != nil {
			t.Fatalf("verify after open: %v", err)
		}
		if !after.Clean() {
			t.Fatalf("store not clean after the repairing open: %+v (before: %+v)", after.Issues, rep.Issues)
		}
	})
}
