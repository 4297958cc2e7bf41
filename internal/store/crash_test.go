package store

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdtw/internal/vfs"
)

// buildFaultStore creates a small store on fs with two tombstones'
// worth of history: 6 appended records (sealing at 2), seq 1
// tombstoned, everything synced. Returns the surviving seqs.
func buildFaultStore(t *testing.T, fs vfs.FS, dir string) map[uint64]bool {
	t.Helper()
	st, err := Create(dir, Config{Fingerprint: "fp", SketchWidth: 4, SegmentRecords: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Append(makeRecord(t, "s"+strconv.Itoa(i), uint64(i), 16, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Tombstone("s1", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return map[uint64]bool{0: true, 2: true, 3: true, 4: true, 5: true}
}

func checkLiveSeqs(t *testing.T, st *Store, want map[uint64]bool, context string) {
	t.Helper()
	live := st.Live()
	if len(live) != len(want) {
		t.Fatalf("%s: %d live records, want %d", context, len(live), len(want))
	}
	for _, rec := range live {
		if !want[rec.Seq] {
			t.Fatalf("%s: unexpected live seq %d", context, rec.Seq)
		}
		orig := makeRecord(t, rec.ID, rec.Seq, 16, 4)
		vals, err := rec.LoadValues()
		if err != nil {
			t.Fatalf("%s: loading seq %d: %v", context, rec.Seq, err)
		}
		checkF64s(t, context+" values", vals, orig.Values)
	}
}

// TestStoreCrashMidCompactSweepsOrphans is the regression test for the
// compact crash window: a power cut at EVERY filesystem operation
// inside Compact must leave a store that reopens with exactly the
// acknowledged records, and a directory with no leaked segment files
// (the old Compact leaked seg-* files forever when it crashed between
// its manifest commit and its remove loop).
func TestStoreCrashMidCompactSweepsOrphans(t *testing.T) {
	for n := 1; n < 200; n++ {
		fs := vfs.NewFaultFS(int64(1000 + n))
		dir := "store"
		want := buildFaultStore(t, fs, dir)
		st, err := OpenWith(dir, OpenOptions{FS: fs})
		if err != nil {
			t.Fatalf("crash %d: pre-compact open: %v", n, err)
		}
		fs.CrashAt(n)
		err = st.Compact()
		st.Close()
		if !fs.Crashed() {
			// The whole compact ran with fewer than n mutations: the
			// sweep is complete.
			if err != nil {
				t.Fatalf("crash %d: compact failed without a crash: %v", n, err)
			}
			fs.CrashAt(0)
			verifyCleanAfterCrash(t, fs, dir, want, n)
			return
		}
		// The crash may land in a best-effort cleanup op, in which case
		// Compact itself reports success; either way the reopen must
		// hold exactly the acknowledged records.
		if err != nil && !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash %d: compact failed with %v, want ErrCrashed", n, err)
		}
		fs.Recover()
		verifyCleanAfterCrash(t, fs, dir, want, n)
	}
	t.Fatal("compact never completed within 200 mutating operations")
}

func verifyCleanAfterCrash(t *testing.T, fs *vfs.FaultFS, dir string, want map[uint64]bool, n int) {
	t.Helper()
	st, err := OpenWith(dir, OpenOptions{FS: fs})
	if err != nil {
		t.Fatalf("crash %d: reopen: %v", n, err)
	}
	checkLiveSeqs(t, st, want, "crash "+strconv.Itoa(n))
	if err := st.Close(); err != nil {
		t.Fatalf("crash %d: close: %v", n, err)
	}
	// The repairing open must leave nothing behind: no orphans, no torn
	// tails, nothing quarantined.
	rep, err := Verify(dir, fs)
	if err != nil {
		t.Fatalf("crash %d: verify: %v", n, err)
	}
	if !rep.Clean() {
		t.Fatalf("crash %d: store not clean after reopen: %+v", n, rep.Issues)
	}
}

// TestStoreTornTombstoneTail: a crash mid-Tombstone leaves a torn final
// JSON line; Open must keep every complete entry and truncate the torn
// one instead of failing the whole open.
func TestStoreTornTombstoneTail(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, Config{Fingerprint: "fp", SketchWidth: 4})
	for i := 0; i < 3; i++ {
		if err := st.Append(makeRecord(t, "s"+strconv.Itoa(i), uint64(i), 16, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Tombstone("s0", 0); err != nil {
		t.Fatal(err)
	}
	st.Close()

	p := filepath.Join(dir, tombstonesName)
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"s2","se`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st = mustOpen(t, dir)
	checkLiveSeqs(t, st, map[uint64]bool{1: true, 2: true}, "torn tombstone")
	if h := st.Health(); h.TruncatedBytes == 0 {
		t.Fatalf("health did not count the torn entry: %+v", h)
	}
	st.Close()

	// The truncation is durable: the log holds exactly the complete
	// entry again.
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 1 || strings.Contains(string(data), "s2") {
		t.Fatalf("log after recovery: %q", data)
	}

	// Garbage before the final line is real corruption, not a tear.
	if err := os.WriteFile(p, []byte("not json\n{\"id\":\"s1\",\"seq\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("mid-log garbage: %v, want ErrCorruptManifest", err)
	}
}

// TestStoreQuarantineLifecycle pins the quarantine semantics end to
// end: a corrupt sealed segment fails a plain Open, is sidelined under
// AllowQuarantine (files renamed, manifest updated, survivors served,
// health reported), makes later plain Opens fail with ErrQuarantined,
// and blocks Compact.
func TestStoreQuarantineLifecycle(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, Config{Fingerprint: "fp", SketchWidth: 4, SegmentRecords: 2})
	for i := 0; i < 6; i++ {
		if err := st.Append(makeRecord(t, "s"+strconv.Itoa(i), uint64(i), 16, 4)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Flip a payload byte in sealed segment 2 (records s2, s3).
	p := filepath.Join(dir, segName(2, "hot"))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("plain open of corrupt store: %v, want ErrCorruptSegment", err)
	}

	st, err = OpenWith(dir, OpenOptions{AllowQuarantine: true})
	if err != nil {
		t.Fatalf("quarantining open: %v", err)
	}
	checkLiveSeqs(t, st, map[uint64]bool{0: true, 1: true, 4: true, 5: true}, "post-quarantine")
	h := st.Health()
	if h.Quarantined != 1 || h.QuarantinedRecords != 2 || !h.Degraded() {
		t.Fatalf("health after quarantine: %+v", h)
	}
	for _, ext := range []string{"hot", "val"} {
		q := filepath.Join(dir, segName(2, ext)+quarantineExt)
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("quarantine file %s: %v", q, err)
		}
	}
	if err := st.Compact(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("compact on quarantined store: %v, want ErrQuarantined", err)
	}
	// The store stays writable in degraded mode.
	if err := st.Append(makeRecord(t, "s6", 6, 16, 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Quarantine is sticky: a plain Open refuses until the operator
	// opts in again.
	if _, err := Open(dir); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("plain reopen of quarantined store: %v, want ErrQuarantined", err)
	}
	st, err = OpenWith(dir, OpenOptions{AllowQuarantine: true})
	if err != nil {
		t.Fatalf("degraded reopen: %v", err)
	}
	defer st.Close()
	checkLiveSeqs(t, st, map[uint64]bool{0: true, 1: true, 4: true, 5: true, 6: true}, "degraded reopen")
	if h := st.Health(); h.Quarantined != 1 || h.QuarantinedRecords != 2 {
		t.Fatalf("health after degraded reopen: %+v", h)
	}
}

// TestStoreFailAtInjection: an injected I/O error surfaces from the
// failing operation, and the store remains consistent — the failed
// append is absent, later appends land.
func TestStoreFailAtInjection(t *testing.T) {
	fs := vfs.NewFaultFS(7)
	dir := "store"
	st, err := Create(dir, Config{Fingerprint: "fp", SketchWidth: 4, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	fs.FailAt(1, boom)
	if err := st.Append(makeRecord(t, "a", 0, 16, 4)); !errors.Is(err, boom) {
		t.Fatalf("append under injection: %v, want the injected error", err)
	}
	if err := st.Append(makeRecord(t, "b", 1, 16, 4)); err != nil {
		t.Fatalf("append after injection: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenWith(dir, OpenOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkLiveSeqs(t, st, map[uint64]bool{1: true}, "after injection")
}

// shortFS wraps a filesystem so that, once armed, the next write into a
// file whose name ends in suffix writes the first half of its bytes and
// fails — a short write, as a full disk makes. failCut additionally fails
// every Truncate, so the store cannot undo it.
type shortFS struct {
	vfs.FS
	suffix  string
	armed   bool
	failCut bool
}

var (
	errShortWrite = errors.New("injected short write")
	errCut        = errors.New("injected truncate failure")
)

func (f *shortFS) Create(name string) (vfs.File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &shortFile{File: h, fs: f, name: name}, nil
}

func (f *shortFS) OpenAppend(name string) (vfs.File, int64, error) {
	h, size, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, 0, err
	}
	return &shortFile{File: h, fs: f, name: name}, size, nil
}

func (f *shortFS) Truncate(name string, size int64) error {
	if f.failCut {
		return errCut
	}
	return f.FS.Truncate(name, size)
}

type shortFile struct {
	vfs.File
	fs   *shortFS
	name string
}

func (h *shortFile) Write(p []byte) (int, error) {
	if !h.fs.armed || !strings.HasSuffix(h.name, h.fs.suffix) {
		return h.File.Write(p)
	}
	h.fs.armed = false
	n, _ := h.File.Write(p[:len(p)/2])
	return n, errShortWrite
}

// TestStoreShortWrite: a write that fails after writing part of its bytes
// — into the value file, the hot file or the tombstone log — leaves the
// file as it was, so the retry and every later acknowledged write read
// back intact in the running process and again after a reopen, with
// nothing for the reopen to recover. Every file is restored, on the real
// filesystem (whose write handles must follow the cut) and on FaultFS.
func TestStoreShortWrite(t *testing.T) {
	bases := map[string]func(t *testing.T) (vfs.FS, string){
		"os":    func(t *testing.T) (vfs.FS, string) { return vfs.OS(), t.TempDir() },
		"fault": func(*testing.T) (vfs.FS, string) { return vfs.NewFaultFS(3), "store" },
	}
	for baseName, base := range bases {
		for _, suffix := range []string{".val", ".hot", tombstonesName} {
			t.Run(baseName+"/"+suffix, func(t *testing.T) {
				under, dir := base(t)
				fs := &shortFS{FS: under, suffix: suffix}
				st, err := Create(dir, Config{Fingerprint: "fp", SketchWidth: 4, FS: fs})
				if err != nil {
					t.Fatal(err)
				}
				add := func(seq uint64) error { return st.Append(makeRecord(t, "s"+strconv.Itoa(int(seq)), seq, 16, 4)) }
				for seq := uint64(0); seq < 3; seq++ {
					if err := add(seq); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Tombstone("s0", 0); err != nil {
					t.Fatal(err)
				}
				// The failing write, then its retry: an Append of seq 3, or
				// a Tombstone of seq 1.
				want := map[uint64]bool{1: true, 2: true, 3: true, 4: true}
				write := func() error { return add(3) }
				if suffix == tombstonesName {
					want = map[uint64]bool{2: true, 4: true}
					write = func() error { return st.Tombstone("s1", 1) }
				}
				fs.armed = true
				if err := write(); !errors.Is(err, errShortWrite) {
					t.Fatalf("write under a short %s write: %v, want the injected fault", suffix, err)
				}
				if fs.armed {
					t.Fatalf("no write into a %s file happened", suffix)
				}
				if err := write(); err != nil {
					t.Fatalf("retry: %v", err)
				}
				// Acknowledged writes after the fault, of both kinds.
				if err := add(4); err != nil {
					t.Fatal(err)
				}
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := st.Tombstone("s3", 3); err != nil {
					t.Fatal(err)
				}
				delete(want, 3)
				checkLiveSeqs(t, st, want, "in process")
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				st, err = OpenWith(dir, OpenOptions{FS: under})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer st.Close()
				checkLiveSeqs(t, st, want, "reopened")
				if h := st.Health(); h != (Health{}) {
					t.Fatalf("reopen recovered something: %+v", h)
				}
			})
		}
	}
}

// TestStoreShortWriteUncut: when the partial bytes of a failed write
// cannot be cut back, the store refuses every later write instead of
// appending after them, and a reopen truncates them and serves every
// acknowledged record.
func TestStoreShortWriteUncut(t *testing.T) {
	fs := &shortFS{FS: vfs.NewFaultFS(5), suffix: ".hot"}
	st, err := Create("store", Config{Fingerprint: "fp", SketchWidth: 4, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(makeRecord(t, "s0", 0, 16, 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.armed, fs.failCut = true, true
	if err := st.Append(makeRecord(t, "s1", 1, 16, 4)); !errors.Is(err, errShortWrite) {
		t.Fatalf("append under a short write: %v, want the injected fault", err)
	}
	fs.failCut = false
	if err := st.Append(makeRecord(t, "s2", 2, 16, 4)); !errors.Is(err, errCut) {
		t.Fatalf("append after an uncut short write: %v, want a refusal naming the failed cut", err)
	}
	if err := st.Tombstone("s0", 0); !errors.Is(err, errCut) {
		t.Fatalf("tombstone after an uncut short write: %v, want a refusal naming the failed cut", err)
	}
	if err := st.Compact(); !errors.Is(err, errCut) {
		t.Fatalf("compact after an uncut short write: %v, want a refusal naming the failed cut", err)
	}
	st.Close()
	st, err = OpenWith("store", OpenOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkLiveSeqs(t, st, map[uint64]bool{0: true}, "reopened")
	if h := st.Health(); h.TruncatedBytes == 0 {
		t.Fatalf("reopen did not cut the partial record: %+v", h)
	}
}

// TestVerifyRepair drives the fsck surface: Verify finds torn tails,
// orphans and corrupt sealed segments with the right sentinels, Repair
// fixes what recovery can fix, and a repaired store verifies clean (up
// to the quarantine it recorded).
func TestVerifyRepair(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, Config{Fingerprint: "fp", SketchWidth: 4, SegmentRecords: 2})
	for i := 0; i < 5; i++ {
		if err := st.Append(makeRecord(t, "s"+strconv.Itoa(i), uint64(i), 16, 4)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	rep, err := Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 5 || rep.Segments != 3 {
		t.Fatalf("verify of intact store: %+v", rep)
	}

	// Damage: torn active tail, a torn tombstone entry, an orphan
	// segment file, and a corrupt sealed segment.
	appendBytes := func(name string, b []byte) {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	appendBytes(segName(3, "hot"), []byte{9, 9, 9}) // torn tail on active
	appendBytes(tombstonesName, []byte(`{"id":"s0",`))
	appendBytes(segName(99, "hot"), []byte("stray"))
	flip := filepath.Join(dir, segName(1, "hot"))
	data, err := os.ReadFile(flip)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(flip, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIssue := func(sentinel error, path string) {
		t.Helper()
		for _, is := range rep.Issues {
			if is.Path == path && (sentinel == nil || errors.Is(is.Err, sentinel)) {
				return
			}
		}
		t.Fatalf("no issue %v on %s in %+v", sentinel, path, rep.Issues)
	}
	wantIssue(ErrTornTail, segName(3, "hot"))
	wantIssue(ErrTornTail, tombstonesName)
	wantIssue(nil, segName(99, "hot"))
	wantIssue(ErrCorruptSegment, segName(1, "hot"))
	if !rep.Repairable() {
		t.Fatalf("damage should be repairable: %+v", rep.Issues)
	}

	h, err := Repair(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Quarantined != 1 || h.TruncatedBytes == 0 || h.OrphansSwept != 1 {
		t.Fatalf("repair health: %+v", h)
	}

	rep, err = Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The only remaining finding is the quarantine the repair recorded.
	if len(rep.Issues) != 1 || !errors.Is(rep.Issues[0].Err, ErrQuarantined) {
		t.Fatalf("verify after repair: %+v", rep.Issues)
	}
	if rep.Records != 3 {
		t.Fatalf("records after repair = %d, want 3", rep.Records)
	}
}

// TestVerifySealedValCorruption: a bit flip in a sealed value block is
// invisible to Open (lazy loading) but a full Verify reads every block.
func TestVerifySealedValCorruption(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, Config{Fingerprint: "fp", SketchWidth: 4, SegmentRecords: 1})
	if err := st.Append(makeRecord(t, "v", 0, 16, 4)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	p := filepath.Join(dir, segName(1, "val"))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(valMagic)+4+8] ^= 0x01
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("verify missed the corrupt sealed value block")
	}
	found := false
	for _, is := range rep.Issues {
		if is.Path == segName(1, "val") && errors.Is(is.Err, ErrCorruptSegment) {
			found = is.Repairable == false
		}
	}
	if !found {
		t.Fatalf("sealed val issue missing or marked repairable: %+v", rep.Issues)
	}
}
