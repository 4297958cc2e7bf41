// Package store implements the append-friendly segment persistence
// format behind store-backed indexes: a directory holds a JSON manifest,
// immutable sealed segments, one active (appendable) segment, and a
// tombstone log.
//
// Each segment is a pair of files. The hot file (seg-NNNNNNNN.hot)
// carries everything a search needs before a candidate survives the
// bound cascade — IDs, labels, insertion sequences, lengths, raw
// endpoints (for LB_Kim), stage-0 PAA sketches and LB_Keogh envelopes —
// as length-prefixed, CRC-protected records that an Open slurps eagerly;
// its cost is O(live series · envelope), independent of the raw values.
// The value file (seg-NNNNNNNN.val) carries the raw observations as
// length-prefixed CRC-protected blocks read lazily through io.ReaderAt
// only when a candidate reaches the dynamic program, so the raw
// collection never has to fit in RAM (the layout is offset-addressed
// and mmap-friendly: fixed-layout block headers at recorded offsets).
//
// Add appends a record to the active segment (sealing it into an
// immutable segment once it reaches the configured record count);
// Remove appends to the tombstone log; Compact rewrites the live
// records into fresh segments and truncates the log. Records loaded
// before a compaction keep reading values through their original (now
// unlinked) file handles, so copy-on-write readers are never invalidated.
//
// # Layout
//
// format.go holds the one encoder and one decoder of each segment file
// structure, so a format revision starts there and at
// TestStoreFormatGolden, which pins every file's bytes: the hot header
// (hotHeader, checked by hotFrames); the hot-record frame of payload
// length, payload and CRC-32 (encodeFrame, frameReader.next, and
// encodeRecord/decodeRecord for the payload); the value file's magic
// (openValFile); and its value blocks of count, float64 bits and CRC-32
// (encodeValBlock, readValBlock). createSynced starts each file with
// its header or magic.
//
// # Durability
//
// All filesystem access goes through the vfs seam, so every crash path
// is drivable from a test (vfs.FaultFS). The durability contract:
//
//   - Manifest commits (create, seal, compact, quarantine) fsync the
//     temp file before the rename and the directory after it.
//   - Tombstone appends fsync the log before returning: a returned
//     Tombstone survives any crash.
//   - Appends are acknowledged by Sync (or a seal/compact, which sync
//     internally): records appended since the last sync may be lost to
//     a power cut, never corrupted past recovery.
//   - Open truncates a torn tail on the active segment (per-record and
//     per-block CRCs make this safe), truncates a torn trailing
//     tombstone entry, and sweeps segment files no manifest references
//     (a compact that crashed between its commit and its cleanup).
//   - A corrupt sealed segment fails the open with ErrCorruptSegment —
//     or, under AllowQuarantine, is renamed aside and recorded in the
//     manifest so the survivors keep serving; Health reports the
//     damage.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sdtw/internal/lower"
	"sdtw/internal/sketch"
	"sdtw/internal/vfs"
)

// Sentinel errors of the segment store. Every corruption found at Open
// or value-load time wraps one of these, so callers branch with
// errors.Is instead of matching message strings.
var (
	// ErrCorruptManifest reports an unreadable, unparsable or
	// version-incompatible store manifest (or a directory that is not a
	// store at all).
	ErrCorruptManifest = errors.New("corrupt store manifest")
	// ErrCorruptSegment reports a segment file whose contents do not
	// match its recorded layout or checksums.
	ErrCorruptSegment = errors.New("corrupt store segment")
	// ErrStoreExists reports a Create into a directory already holding a
	// store.
	ErrStoreExists = errors.New("store already exists")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store closed")
	// ErrTornTail reports an unsynced suffix torn off by a crash: a
	// Verify finding on the active segment or the tombstone log (Open
	// and Repair truncate it instead).
	ErrTornTail = errors.New("torn segment tail")
	// ErrQuarantined reports quarantined segments: Open without
	// AllowQuarantine refuses a store that holds any, and Compact
	// refuses to rewrite around them.
	ErrQuarantined = errors.New("store has quarantined segments")
)

const (
	manifestName   = "MANIFEST.json"
	tombstonesName = "tombstones.log"
	formatVersion  = 1

	// quarantineExt is appended to a corrupt sealed segment's file names
	// when it is sidelined, preserving the bytes for forensics.
	quarantineExt = ".quarantine"

	// DefaultSegmentRecords is the seal threshold when Config leaves it
	// zero: segments stay small enough that compaction rewrites in
	// bounded chunks, large enough that a million-series store holds a
	// few hundred segments, not millions of files.
	DefaultSegmentRecords = 4096
)

// Config parameterises Create.
type Config struct {
	// Fingerprint is the index configuration fingerprint the store's
	// envelopes and sketches were computed under. Open returns it
	// verbatim; the index layer refuses fingerprints it did not expect.
	Fingerprint string
	// SketchWidth is the stage-0 sketch coefficient count every record
	// carries (>= 1).
	SketchWidth int
	// SegmentRecords is the record count at which the active segment is
	// sealed; <= 0 means DefaultSegmentRecords.
	SegmentRecords int
	// Meta carries small caller-owned configuration (index kind, series
	// length, shard membership) verbatim through the manifest.
	Meta map[string]string
	// FS is the filesystem the store lives on; nil means the real one.
	// Tests inject vfs.FaultFS here.
	FS vfs.FS
}

// OpenOptions parameterises OpenWith.
type OpenOptions struct {
	// FS is the filesystem the store lives on; nil means the real one.
	FS vfs.FS
	// AllowQuarantine lets Open sideline a corrupt sealed segment
	// (rename to seg-*.quarantine, record it in the manifest) and serve
	// the survivors, instead of failing with ErrCorruptSegment. Once a
	// store holds quarantined segments, reopening it requires this
	// option until Repair or manual intervention clears them.
	AllowQuarantine bool
}

// Health reports the damage a store is carrying: what Open recovered,
// swept, or sidelined. A zero Health is a fully intact store.
type Health struct {
	// Quarantined counts sealed segments sidelined as corrupt;
	// QuarantinedRecords counts the records unavailable with them.
	Quarantined        int
	QuarantinedRecords int
	// RecoveredRecords counts the complete records salvaged from the
	// active segment after a torn tail was truncated (0 when no
	// recovery was needed).
	RecoveredRecords int
	// TruncatedBytes counts bytes cut from the active segment and the
	// tombstone log during torn-tail recovery.
	TruncatedBytes int64
	// OrphansSwept counts segment files no manifest referenced that
	// Open removed (the residue of a crashed compact).
	OrphansSwept int
}

// Degraded reports whether the store is serving without quarantined
// records.
func (h Health) Degraded() bool { return h.Quarantined > 0 }

// Record is one persisted series: the hot metadata loaded eagerly at
// Open, plus lazy access to the raw values.
type Record struct {
	ID    string
	Label int
	// Seq is the caller's insertion sequence; Live returns records in
	// ascending Seq order and tombstones name the (ID, Seq) pair, so a
	// re-added ID never resurrects its predecessor's tombstone.
	Seq uint64
	// N is the raw value count; First and Last are the raw endpoint
	// values, kept hot so LB_Kim needs no value load.
	N           int
	First, Last float64
	Sketch      sketch.Sketch
	Envelope    lower.Envelope
	// Values carries the raw observations on Append; Open leaves it nil
	// (use LoadValues).
	Values []float64

	src *valSource
	off int64
}

// LoadValues reads, checksums and returns the record's raw values from
// the value file. Safe for concurrent use; each call reads from disk
// (callers cache — the index layer materialises at most once per
// series).
func (r *Record) LoadValues() ([]float64, error) {
	if r.Values != nil {
		out := make([]float64, len(r.Values))
		copy(out, r.Values)
		return out, nil
	}
	if r.src == nil {
		return nil, fmt.Errorf("store: record %q has no value source: %w", r.ID, ErrCorruptSegment)
	}
	f, err := r.src.file()
	if err != nil {
		return nil, fmt.Errorf("store: opening values of %q: %w", r.ID, err)
	}
	body, err := readValBlock(f, r.off, r.N)
	if err != nil {
		return nil, fmt.Errorf("store: value block of %q: %w", r.ID, err)
	}
	return decodeFloats(body), nil
}

// valSource is one segment's lazily opened value file. It outlives
// compaction: the handle stays open (and readable) after the file is
// unlinked, so records captured by copy-on-write readers keep loading.
type valSource struct {
	fs   vfs.FS
	path string
	once sync.Once
	f    vfs.File
	err  error
}

func (v *valSource) file() (vfs.File, error) {
	v.once.Do(func() {
		f, err := v.fs.Open(v.path)
		if err != nil {
			v.err = err
			return
		}
		v.f = f
	})
	return v.f, v.err
}

func (v *valSource) close() {
	v.once.Do(func() { v.err = iofs.ErrClosed })
	if v.f != nil {
		v.f.Close()
	}
}

// manifest is the store's committed state; it is rewritten atomically
// (synced temp file + rename + directory sync) on create, seal,
// compact and quarantine.
type manifest struct {
	Version        int               `json:"version"`
	Fingerprint    string            `json:"fingerprint"`
	SketchWidth    int               `json:"sketch_width"`
	SegmentRecords int               `json:"segment_records"`
	Meta           map[string]string `json:"meta,omitempty"`
	// NextSegment numbers segments monotonically across seals and
	// compactions, so new files never collide with retired ones.
	NextSegment int             `json:"next_segment"`
	Sealed      []sealedSegment `json:"sealed"`
	// Active is the appendable segment's number (always present).
	Active int `json:"active"`
	// Quarantined lists sealed segments sidelined as corrupt, in the
	// order they were quarantined.
	Quarantined []quarantinedSegment `json:"quarantined,omitempty"`
}

type sealedSegment struct {
	Seg     int    `json:"seg"`
	Records int    `json:"records"`
	HotCRC  uint32 `json:"hot_crc"`
}

// quarantinedSegment records a sealed segment sidelined as corrupt: its
// files live on under seg-*.quarantine names for forensics, its records
// are unavailable, and Reason preserves what the open found.
type quarantinedSegment struct {
	Seg     int    `json:"seg"`
	Records int    `json:"records"`
	Reason  string `json:"reason,omitempty"`
}

// tombstone is one line of tombstones.log.
type tombstone struct {
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
}

// Store is an open segment store. Append, Tombstone, Compact and Close
// serialise on an internal lock; Record.LoadValues is lock-free and may
// run concurrently with all of them.
type Store struct {
	dir string
	fs  vfs.FS

	mu      sync.Mutex
	man     manifest
	records []*Record
	dead    map[uint64]bool
	active  *segWriter
	sources map[int]*valSource
	retired []*valSource
	tomb    vfs.File
	// tombOff is the tombstone log's length: a failed append cuts the log
	// back to it.
	tombOff int64
	health  Health
	// deferManifest suppresses the manifest commit a mid-compact seal
	// would otherwise write: with the orphan sweep, an intermediate
	// manifest that already dropped the old segments would turn a crash
	// mid-compact into data loss.
	deferManifest bool
	closed        bool
	// broken is set when a failed write's partial bytes could not be cut
	// back: a later write would land after them, so the store refuses
	// writes until a reopen's recovery truncates them.
	broken error
}

// segWriter is the active segment's append state.
type segWriter struct {
	seg      int
	hot, val vfs.File
	hotCRC   uint32 // running CRC over the whole hot file
	records  int
	// hotOff and valOff are the two files' lengths: where the next record
	// and value block go, and where a failed Append cuts them back to.
	hotOff, valOff int64
}

// newStore returns a Store over dir holding no manifest or records yet;
// a nil fsys means the real filesystem.
func newStore(dir string, fsys vfs.FS) *Store {
	if fsys == nil {
		fsys = vfs.OS()
	}
	return &Store{dir: dir, fs: fsys, dead: make(map[uint64]bool), sources: make(map[int]*valSource)}
}

// source returns segment seg's value source, creating it on first use.
func (st *Store) source(seg int) *valSource {
	src, ok := st.sources[seg]
	if !ok {
		src = &valSource{fs: st.fs, path: st.segPath(seg, "val")}
		st.sources[seg] = src
	}
	return src
}

func segName(seg int, ext string) string { return fmt.Sprintf("seg-%08d.%s", seg, ext) }

func (st *Store) segPath(seg int, ext string) string {
	return filepath.Join(st.dir, segName(seg, ext))
}

// Create initialises a new store in dir (created if absent; must not
// already hold a store) and returns it open for appends.
func Create(dir string, cfg Config) (*Store, error) {
	if cfg.SketchWidth < 1 {
		return nil, fmt.Errorf("store: sketch width must be >= 1, got %d", cfg.SketchWidth)
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = DefaultSegmentRecords
	}
	st := newStore(dir, cfg.FS)
	st.man = manifest{
		Version:        formatVersion,
		Fingerprint:    cfg.Fingerprint,
		SketchWidth:    cfg.SketchWidth,
		SegmentRecords: cfg.SegmentRecords,
		Meta:           cfg.Meta,
		NextSegment:    2,
		Active:         1,
	}
	if err := st.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if st.fs.Exists(filepath.Join(dir, manifestName)) {
		return nil, fmt.Errorf("store: %s: %w", dir, ErrStoreExists)
	}
	tomb, tombOff, err := st.fs.OpenAppend(filepath.Join(dir, tombstonesName))
	if err != nil {
		return nil, fmt.Errorf("store: creating tombstone log: %w", err)
	}
	st.tomb, st.tombOff = tomb, tombOff
	if st.active, err = st.newSegment(1); err != nil {
		tomb.Close()
		return nil, err
	}
	// The manifest commit's directory sync also makes the segment and
	// tombstone file names durable.
	if err := st.writeManifest(); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// newSegment opens a fresh active segment and writes (and syncs) its
// headers.
func (st *Store) newSegment(seg int) (*segWriter, error) {
	hotHdr := st.hotHeader()
	hot, err := st.createSynced(st.segPath(seg, "hot"), hotHdr)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment %d: %w", seg, err)
	}
	val, err := st.createSynced(st.segPath(seg, "val"), []byte(valMagic))
	if err != nil {
		hot.Close()
		return nil, fmt.Errorf("store: creating segment %d: %w", seg, err)
	}
	return &segWriter{seg: seg, hot: hot, val: val, hotCRC: crc32.ChecksumIEEE(hotHdr),
		hotOff: int64(len(hotHdr)), valOff: int64(len(valMagic))}, nil
}

// createSynced creates the file at path holding head (a segment file's
// header or magic), synced, and returns it open for appending.
func (st *Store) createSynced(path string, head []byte) (vfs.File, error) {
	f, err := st.fs.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(head); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// sync makes every append to the segment so far durable.
func (w *segWriter) sync() error {
	if err := w.hot.Sync(); err != nil {
		return err
	}
	return w.val.Sync()
}

func (w *segWriter) closeFiles() {
	w.hot.Close()
	w.val.Close()
}

// writeManifest commits the manifest durably: synced temp file, rename
// over the old manifest, directory sync. A power cut leaves either the
// old manifest or the new one, never a torn mix, and the rename cannot
// be silently undone.
func (st *Store) writeManifest() error {
	data, err := json.MarshalIndent(st.man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	tmp := filepath.Join(st.dir, manifestName+".tmp")
	if st.fs.Exists(tmp) {
		if err := st.fs.Remove(tmp); err != nil {
			return fmt.Errorf("store: clearing stale manifest temp: %w", err)
		}
	}
	f, err := st.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if err := st.fs.Rename(tmp, filepath.Join(st.dir, manifestName)); err != nil {
		return fmt.Errorf("store: committing manifest: %w", err)
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		return fmt.Errorf("store: committing manifest: %w", err)
	}
	return nil
}

// Open opens an existing store on the real filesystem with default
// options; see OpenWith.
func Open(dir string) (*Store, error) { return OpenWith(dir, OpenOptions{}) }

// OpenWith opens an existing store, eagerly loading every segment's hot
// records (IDs, endpoints, sketches, envelopes) and the tombstone log;
// raw values stay on disk until Record.LoadValues. Crash residue is
// repaired on the way in: orphaned segment files are swept, a torn tail
// on the active segment or the tombstone log is truncated (counted in
// Health). Corruption in a sealed segment fails the open with
// ErrCorruptSegment — or quarantines the segment under
// OpenOptions.AllowQuarantine.
func OpenWith(dir string, opts OpenOptions) (*Store, error) {
	st := newStore(dir, opts.FS)
	var err error
	if st.man, err = readManifest(st.fs, dir); err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	if n := len(st.man.Quarantined); n > 0 && !opts.AllowQuarantine {
		return nil, fmt.Errorf("store: %s: %d quarantined segments (reopen with AllowQuarantine, or repair): %w", dir, n, ErrQuarantined)
	}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()
	if err := st.sweepOrphans(); err != nil {
		return nil, err
	}
	manifestDirty := false
	for i := 0; i < len(st.man.Sealed); {
		sealed := st.man.Sealed[i]
		mark := len(st.records)
		err := st.loadSealed(sealed)
		if err == nil {
			i++
			continue
		}
		if !opts.AllowQuarantine || !errors.Is(err, ErrCorruptSegment) {
			return nil, err
		}
		st.records = st.records[:mark]
		st.quarantineSealed(i, err)
		manifestDirty = true
	}
	if st.active, err = st.openActive(st.man.Active); err != nil {
		return nil, err
	}
	if err := st.loadTombstones(); err != nil {
		return nil, err
	}
	if manifestDirty {
		if err := st.writeManifest(); err != nil {
			return nil, err
		}
	}
	st.health.Quarantined = len(st.man.Quarantined)
	for _, q := range st.man.Quarantined {
		st.health.QuarantinedRecords += q.Records
	}
	ok = true
	return st, nil
}

// readManifest reads and validates the manifest of the store in dir;
// every failure wraps ErrCorruptManifest. Open and Verify both read the
// manifest through it.
func readManifest(fsys vfs.FS, dir string) (manifest, error) {
	var man manifest
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return man, fmt.Errorf("reading manifest: %v: %w", err, ErrCorruptManifest)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("parsing manifest: %v: %w", err, ErrCorruptManifest)
	}
	if man.Version != formatVersion {
		return man, fmt.Errorf("manifest version %d, want %d: %w", man.Version, formatVersion, ErrCorruptManifest)
	}
	if man.SketchWidth < 1 || man.Active < 1 || man.SegmentRecords < 1 {
		return man, fmt.Errorf("manifest fields out of range: %w", ErrCorruptManifest)
	}
	return man, nil
}

// orphans returns the entries of a store directory listing that the
// manifest does not reference and a crash can leave behind: segment
// files (the residue of a compact that crashed between its manifest
// commit and its cleanup) and a stale manifest temp file. Quarantined
// files are never orphans. Open sweeps what it returns; Verify reports
// it.
func (man *manifest) orphans(names []string) []string {
	keep := map[string]bool{}
	mark := func(seg int) {
		keep[segName(seg, "hot")] = true
		keep[segName(seg, "val")] = true
	}
	for _, s := range man.Sealed {
		mark(s.Seg)
	}
	mark(man.Active)
	var out []string
	for _, name := range names {
		if !keep[name] && (isSegFile(name) || name == manifestName+".tmp") {
			out = append(out, name)
		}
	}
	return out
}

// isSegFile reports whether a directory entry is named like a live
// segment file (a quarantined one carries a further extension).
func isSegFile(name string) bool {
	return strings.HasPrefix(name, "seg-") &&
		(strings.HasSuffix(name, ".hot") || strings.HasSuffix(name, ".val"))
}

// sweepOrphans removes the files orphans names and counts the segment
// files among them in Health.
func (st *Store) sweepOrphans() error {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", st.dir, err)
	}
	orphans := st.man.orphans(names)
	for _, name := range orphans {
		if err := st.fs.Remove(filepath.Join(st.dir, name)); err != nil {
			return fmt.Errorf("store: sweeping orphan %s: %w", name, err)
		}
		if isSegFile(name) {
			st.health.OrphansSwept++
		}
	}
	if len(orphans) > 0 {
		if err := st.fs.SyncDir(st.dir); err != nil {
			return fmt.Errorf("store: sweeping orphans: %w", err)
		}
	}
	return nil
}

// quarantineSealed sidelines manifest entry i of Sealed: both segment
// files are renamed aside (preserving the bytes for forensics) and the
// entry moves to Quarantined with the corruption recorded. The caller
// commits the manifest once loading finishes.
func (st *Store) quarantineSealed(i int, cause error) {
	s := st.man.Sealed[i]
	delete(st.sources, s.Seg)
	for _, ext := range []string{"hot", "val"} {
		from := st.segPath(s.Seg, ext)
		if st.fs.Exists(from) {
			// Best effort: a failed rename leaves an orphan for the next
			// sweep, not a failed open.
			_ = st.fs.Rename(from, from+quarantineExt)
		}
	}
	st.man.Sealed = append(st.man.Sealed[:i], st.man.Sealed[i+1:]...)
	st.man.Quarantined = append(st.man.Quarantined, quarantinedSegment{
		Seg:     s.Seg,
		Records: s.Records,
		Reason:  cause.Error(),
	})
}

// loadSealed reads one sealed segment's hot file strictly: whole-file
// CRC, header, every record, and the committed record count must all
// check out.
func (st *Store) loadSealed(sealed sealedSegment) error {
	seg := sealed.Seg
	data, err := st.fs.ReadFile(st.segPath(seg, "hot"))
	if err != nil {
		return fmt.Errorf("store: segment %d: %v: %w", seg, err, ErrCorruptSegment)
	}
	if crc32.ChecksumIEEE(data) != sealed.HotCRC {
		return fmt.Errorf("store: segment %d fails its checksum: %w", seg, ErrCorruptSegment)
	}
	fr, err := st.hotFrames(seg, data)
	if err != nil {
		return err
	}
	src := st.source(seg)
	for rec := fr.next(); rec != nil; rec = fr.next() {
		rec.src = src
		st.records = append(st.records, rec)
	}
	if fr.err != nil {
		return fmt.Errorf("store: segment %d: %v: %w", seg, fr.err, ErrCorruptSegment)
	}
	if fr.n != sealed.Records {
		return fmt.Errorf("store: segment %d holds %d records, manifest says %d: %w", seg, fr.n, sealed.Records, ErrCorruptSegment)
	}
	return nil
}

// activeScan is the read-only analysis of an active segment: how much
// of it survived the last crash and where the intact prefix ends in
// each file. Verify reports it; openActive applies it.
type activeScan struct {
	// headerTorn marks a segment whose durable prefix never reached a
	// full header (or whose hot file is missing): recreate it empty.
	headerTorn bool
	// tornBytes is the hot prefix length when headerTorn (counted as
	// truncated once the segment is recreated).
	tornBytes int64
	recs      []*Record
	keep      int // recs[:keep] have intact value blocks
	hotSize   int64
	hotEnd    int64 // hot-file offset just past recs[keep-1]
	hotCRC    uint32
	valSize   int64
	valEnd    int64 // val-file offset just past recs[keep-1]'s block
	magicOK   bool  // val file present with an intact magic
}

func (s *activeScan) intact() bool {
	return !s.headerTorn && s.magicOK && s.keep == len(s.recs) &&
		s.hotEnd == s.hotSize && s.valEnd == s.valSize
}

// scanActive analyses the active segment without touching it. The
// active segment has no committed CRC or record count; its per-record
// and per-value-block checksums decide how much of it survived the last
// crash. Only real corruption — a full-length header that does not
// match the manifest configuration — is an error; every crash shape is
// a scan result.
func (st *Store) scanActive(seg int) (*activeScan, error) {
	valPath := st.segPath(seg, "val")
	data, err := st.fs.ReadFile(st.segPath(seg, "hot"))
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("store: segment %d: %v: %w", seg, err, ErrCorruptSegment)
	}
	fr, err := st.hotFrames(seg, data)
	if err != nil {
		return nil, err
	}
	if fr.err == errTornHeader {
		return &activeScan{headerTorn: true, tornBytes: int64(len(data))}, nil
	}
	scan := &activeScan{hotSize: int64(len(data)), hotEnd: int64(fr.off), valEnd: int64(len(valMagic))}

	// Pass 1: parse hot records up to the first bad frame, the tear.
	var ends []int
	for rec := fr.next(); rec != nil; rec = fr.next() {
		scan.recs = append(scan.recs, rec)
		ends = append(ends, fr.off)
	}

	// Pass 2: hot and val are synced independently, so a durable hot
	// record may reference a dropped or torn value block — verify each
	// block and keep only the prefix whose values are intact.
	vr, magicOK, err := openValFile(st.fs, valPath)
	if err == nil {
		if scan.magicOK = magicOK; magicOK {
			for _, rec := range scan.recs {
				if _, err := readValBlock(vr, rec.off, rec.N); err != nil {
					break
				}
				scan.keep++
			}
		}
		vr.Close()
		if scan.valSize, err = st.fs.Size(valPath); err != nil {
			return nil, fmt.Errorf("store: segment %d values: %v: %w", seg, err, ErrCorruptSegment)
		}
	} else if !errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("store: segment %d values: %v: %w", seg, err, ErrCorruptSegment)
	}

	if scan.keep > 0 {
		scan.hotEnd = int64(ends[scan.keep-1])
		last := scan.recs[scan.keep-1]
		scan.valEnd = last.off + valBlockLen(last.N)
	}
	scan.hotCRC = crc32.ChecksumIEEE(data[:scan.hotEnd])
	return scan, nil
}

// openActive loads the active segment leniently and returns its append
// writer: everything past the first damage the scan found — an
// unsynced, therefore unacknowledged, suffix — is truncated away. A
// missing or header-torn active segment is recreated empty.
func (st *Store) openActive(seg int) (*segWriter, error) {
	scan, err := st.scanActive(seg)
	if err != nil {
		return nil, err
	}
	if scan.headerTorn {
		return st.recreateActive(seg, scan.tornBytes)
	}
	src := st.source(seg)
	hotPath, valPath := st.segPath(seg, "hot"), src.path
	recs, keep := scan.recs, scan.keep
	for _, rec := range recs[:keep] {
		rec.src = src
	}
	hotEnd, valEnd := scan.hotEnd, scan.valEnd
	truncated := false
	if hotEnd < scan.hotSize {
		if err := st.fs.Truncate(hotPath, hotEnd); err != nil {
			return nil, fmt.Errorf("store: recovering segment %d: %w", seg, err)
		}
		st.health.TruncatedBytes += scan.hotSize - hotEnd
		truncated = true
	}
	if !scan.magicOK {
		// The value file is missing or lost even its magic; keep == 0,
		// so no hot record references it — start it over.
		if st.fs.Exists(valPath) {
			if err := st.fs.Remove(valPath); err != nil {
				return nil, fmt.Errorf("store: recovering segment %d: %w", seg, err)
			}
		}
		vw, err := st.createSynced(valPath, []byte(valMagic))
		if err != nil {
			return nil, fmt.Errorf("store: recovering segment %d: %w", seg, err)
		}
		vw.Close()
		truncated = true
	}

	hot, hotSize, err := st.fs.OpenAppend(hotPath)
	if err != nil {
		return nil, fmt.Errorf("store: reopening active segment: %w", err)
	}
	val, valSize, err := st.fs.OpenAppend(valPath)
	if err != nil {
		hot.Close()
		return nil, fmt.Errorf("store: reopening active segment: %w", err)
	}
	w := &segWriter{seg: seg, hot: hot, val: val, hotCRC: scan.hotCRC, records: keep, hotOff: hotEnd, valOff: valEnd}
	if valSize > valEnd {
		if err := st.fs.Truncate(valPath, valEnd); err != nil {
			w.closeFiles()
			return nil, fmt.Errorf("store: recovering segment %d: %w", seg, err)
		}
		st.health.TruncatedBytes += valSize - valEnd
		truncated = true
	} else if valSize < valEnd || hotSize != hotEnd {
		w.closeFiles()
		return nil, fmt.Errorf("store: segment %d changed underfoot during recovery: %w", seg, ErrCorruptSegment)
	}
	if truncated {
		// Make the repaired shape durable so the cut tail cannot
		// resurface after a later crash.
		if err := w.sync(); err != nil {
			w.closeFiles()
			return nil, fmt.Errorf("store: recovering segment %d: %w", seg, err)
		}
		st.health.RecoveredRecords = keep
	}
	st.records = append(st.records, recs[:keep]...)
	return w, nil
}

// recreateActive replaces an active segment whose durable prefix never
// reached a full header (or whose files are missing entirely) with a
// fresh empty one.
func (st *Store) recreateActive(seg int, tornBytes int64) (*segWriter, error) {
	for _, p := range []string{st.segPath(seg, "hot"), st.segPath(seg, "val")} {
		if st.fs.Exists(p) {
			if err := st.fs.Remove(p); err != nil {
				return nil, fmt.Errorf("store: recovering segment %d: %w", seg, err)
			}
		}
	}
	delete(st.sources, seg)
	w, err := st.newSegment(seg)
	if err != nil {
		return nil, err
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		w.closeFiles()
		return nil, fmt.Errorf("store: recovering segment %d: %w", seg, err)
	}
	st.health.TruncatedBytes += tornBytes
	return w, nil
}

// parseTombstones parses the tombstone log: the sequence of every
// complete entry, and the offset of a torn final entry (-1 when there
// is none) — the residue of a crash mid-Tombstone, necessarily
// unacknowledged, since complete entries all survive. An entry that
// does not parse before the last line is corruption (ErrCorruptManifest).
// Open and Verify both read the log through it.
func parseTombstones(data []byte) (seqs []uint64, tornAt int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: the final append was torn.
			return seqs, off, nil
		}
		var tb tombstone
		if err := json.Unmarshal(data[off:off+nl], &tb); err != nil {
			if off+nl+1 == len(data) {
				// A complete-looking final line that does not parse is
				// still crash residue (the newline survived, bytes
				// before it did not); anything earlier is real
				// corruption.
				return seqs, off, nil
			}
			return nil, -1, fmt.Errorf("tombstone log: %v: %w", err, ErrCorruptManifest)
		}
		seqs = append(seqs, tb.Seq)
		off += nl + 1
	}
	return seqs, -1, nil
}

// loadTombstones reads the tombstone log, opens it for appending, and
// truncates a torn final entry.
func (st *Store) loadTombstones() error {
	path := filepath.Join(st.dir, tombstonesName)
	data, err := st.fs.ReadFile(path)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return fmt.Errorf("store: reading tombstone log: %w", err)
	}
	seqs, tornAt, err := parseTombstones(data)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, seq := range seqs {
		st.dead[seq] = true
	}
	if tornAt >= 0 {
		if err := st.fs.Truncate(path, int64(tornAt)); err != nil {
			return fmt.Errorf("store: truncating torn tombstone log: %w", err)
		}
		st.health.TruncatedBytes += int64(len(data) - tornAt)
	}
	tomb, tombOff, err := st.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: opening tombstone log: %w", err)
	}
	st.tombOff = tombOff
	if tornAt >= 0 {
		if err := tomb.Sync(); err != nil {
			tomb.Close()
			return fmt.Errorf("store: truncating torn tombstone log: %w", err)
		}
	}
	st.tomb = tomb
	return nil
}

// Append persists rec (which must carry Values, a Sketch at the store's
// width, and its Envelope) to the active segment: the value block first,
// then the hot record pointing at it. The active segment seals once it
// reaches the configured record count. An Append is durable only after
// the next Sync (or seal/compact); see the package durability contract.
// A failed Append leaves both files as they were, so a retry appends
// cleanly.
func (st *Store) Append(rec Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.writable(); err != nil {
		return err
	}
	return st.appendLocked(rec)
}

// writable reports why the store refuses writes: it is closed, or a
// failed write left bytes it could not cut back.
func (st *Store) writable() error {
	if st.closed {
		return ErrClosed
	}
	return st.broken
}

// cutBack restores the file at path to size after a write into it failed,
// since the write may have left part of its bytes; write handles append,
// so they follow the cut. A cut that fails breaks the store. It returns
// cause, the failure being undone.
func (st *Store) cutBack(cause error, path string, size int64) error {
	if err := st.fs.Truncate(path, size); err != nil && st.broken == nil {
		st.broken = fmt.Errorf("store: a failed write left bytes that could not be cut back (reopen to recover): %w", err)
	}
	return cause
}

// appendLocked is Append's body; Compact re-appends live records
// through it under its own critical section.
func (st *Store) appendLocked(rec Record) error {
	if len(rec.Values) == 0 || rec.N != len(rec.Values) {
		return fmt.Errorf("store: record %q needs Values (N=%d, len=%d)", rec.ID, rec.N, len(rec.Values))
	}
	if rec.Sketch.Width() != st.man.SketchWidth {
		return fmt.Errorf("store: record %q has sketch width %d, store uses %d", rec.ID, rec.Sketch.Width(), st.man.SketchWidth)
	}
	if len(rec.Envelope.Upper) != rec.N {
		return fmt.Errorf("store: record %q has envelope length %d for %d values", rec.ID, len(rec.Envelope.Upper), rec.N)
	}
	w := st.active

	vbuf := encodeValBlock(rec.Values)
	valOff := w.valOff
	if _, err := w.val.Write(vbuf); err != nil {
		return st.cutBack(fmt.Errorf("store: appending values of %q: %w", rec.ID, err), st.segPath(w.seg, "val"), valOff)
	}

	hbuf := encodeFrame(&rec, valOff)
	if _, err := w.hot.Write(hbuf); err != nil {
		err = st.cutBack(fmt.Errorf("store: appending record %q: %w", rec.ID, err), st.segPath(w.seg, "hot"), w.hotOff)
		return st.cutBack(err, st.segPath(w.seg, "val"), valOff)
	}
	w.valOff += int64(len(vbuf))
	w.hotOff += int64(len(hbuf))
	w.hotCRC = crc32.Update(w.hotCRC, crc32.IEEETable, hbuf)
	w.records++

	stored := rec
	stored.Values = nil
	stored.src = st.source(w.seg)
	stored.off = valOff
	st.records = append(st.records, &stored)

	if w.records >= st.man.SegmentRecords {
		return st.sealLocked()
	}
	return nil
}

// sealLocked turns the active segment immutable and opens a fresh one,
// committing both through the manifest (unless a running compact has
// deferred the commit to its own single final one).
func (st *Store) sealLocked() error {
	w := st.active
	if err := w.sync(); err != nil {
		return fmt.Errorf("store: sealing segment %d: %w", w.seg, err)
	}
	w.closeFiles()
	seg := st.man.NextSegment
	st.man.NextSegment++
	st.man.Sealed = append(st.man.Sealed, sealedSegment{Seg: w.seg, Records: w.records, HotCRC: w.hotCRC})
	st.man.Active = seg
	next, err := st.newSegment(seg)
	if err != nil {
		return err
	}
	st.active = next
	if st.deferManifest {
		return nil
	}
	return st.writeManifest()
}

// Sync makes every append so far durable: the acknowledgement barrier
// of the durability contract. Tombstones need no Sync (each append
// syncs itself); the manifest is committed durably by seal and compact.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.active.sync(); err != nil {
		return fmt.Errorf("store: syncing active segment: %w", err)
	}
	return nil
}

// Tombstone marks the record with the given insertion sequence dead (by
// appending to the tombstone log and syncing it — a returned Tombstone
// is durable). The ID is recorded for auditability; liveness keys on
// Seq alone, so re-adding an ID later is safe. A failed Tombstone leaves
// the log as it was, so the record stays live across a reopen and a
// retry appends cleanly.
func (st *Store) Tombstone(id string, seq uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.writable(); err != nil {
		return err
	}
	line, err := json.Marshal(tombstone{ID: id, Seq: seq})
	if err != nil {
		return fmt.Errorf("store: encoding tombstone: %w", err)
	}
	line = append(line, '\n')
	path := filepath.Join(st.dir, tombstonesName)
	if _, err := st.tomb.Write(line); err != nil {
		return st.cutBack(fmt.Errorf("store: appending tombstone for %q: %w", id, err), path, st.tombOff)
	}
	if err := st.tomb.Sync(); err != nil {
		return st.cutBack(fmt.Errorf("store: syncing tombstone for %q: %w", id, err), path, st.tombOff)
	}
	st.tombOff += int64(len(line))
	st.dead[seq] = true
	return nil
}

// Live returns the live (non-tombstoned) records in ascending insertion
// sequence order. The returned slice is fresh; the records are shared.
func (st *Store) Live() []*Record {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.liveLocked()
}

func (st *Store) liveLocked() []*Record {
	out := make([]*Record, 0, len(st.records))
	for _, rec := range st.records {
		if !st.dead[rec.Seq] {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Compact rewrites the live records into fresh segments, truncates the
// tombstone log, and unlinks the old segment files. Records loaded
// before the compaction keep reading through their original handles.
// The manifest is committed exactly once, after the rewritten data is
// synced, so a crash at any point leaves either the old store or the
// new one (plus orphans the next Open sweeps). A store holding
// quarantined segments refuses to compact (ErrQuarantined): rewriting
// would discard the sidelined records for good.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.writable(); err != nil {
		return err
	}
	if len(st.man.Quarantined) > 0 {
		return fmt.Errorf("store: compact would discard %d quarantined segments: %w", len(st.man.Quarantined), ErrQuarantined)
	}
	live := st.liveLocked()
	// Old sources must be open before their files are unlinked, or a
	// copy-on-write reader materialising later would find nothing.
	for _, src := range st.sources {
		if _, err := src.file(); err != nil {
			return fmt.Errorf("store: compact: pinning old segment: %w", err)
		}
	}
	oldSegs := make([]int, 0, len(st.man.Sealed)+1)
	for _, s := range st.man.Sealed {
		oldSegs = append(oldSegs, s.Seg)
	}
	oldSegs = append(oldSegs, st.active.seg)
	oldSources := st.sources

	st.active.closeFiles()
	st.sources = make(map[int]*valSource)
	st.man.Sealed = nil
	st.records = nil
	st.dead = make(map[uint64]bool)
	seg := st.man.NextSegment
	st.man.NextSegment++
	st.man.Active = seg
	w, err := st.newSegment(seg)
	if err != nil {
		return err
	}
	st.active = w
	st.deferManifest = true
	defer func() { st.deferManifest = false }()
	for _, rec := range live {
		vals, err := rec.LoadValues()
		if err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		nr := *rec
		nr.Values = vals
		nr.src, nr.off = nil, 0
		if err := st.appendLocked(nr); err != nil {
			return err
		}
	}
	// Every re-appended record must be durable before the manifest
	// stops referencing the segments it came from.
	if err := st.active.sync(); err != nil {
		return fmt.Errorf("store: compact: syncing active segment: %w", err)
	}
	if err := st.writeManifest(); err != nil {
		return err
	}
	// Stale tombstones name seqs the commit above excluded from the
	// rewrite, so a crash before this truncate is harmless.
	if err := st.fs.Truncate(filepath.Join(st.dir, tombstonesName), 0); err != nil {
		return fmt.Errorf("store: truncating tombstone log: %w", err)
	}
	st.tombOff = 0
	if err := st.tomb.Sync(); err != nil {
		return fmt.Errorf("store: truncating tombstone log: %w", err)
	}
	for _, old := range oldSegs {
		// Best effort: a leftover file is an orphan the next Open
		// sweeps.
		_ = st.fs.Remove(st.segPath(old, "hot"))
		_ = st.fs.Remove(st.segPath(old, "val"))
	}
	_ = st.fs.SyncDir(st.dir)
	for _, src := range oldSources {
		st.retired = append(st.retired, src)
	}
	return nil
}

// NextSeq returns one past the highest insertion sequence the store has
// seen (0 for an empty store), so a reopened index resumes its counter.
func (st *Store) NextSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var next uint64
	for _, rec := range st.records {
		if rec.Seq+1 > next {
			next = rec.Seq + 1
		}
	}
	return next
}

// Fingerprint returns the configuration fingerprint the store was
// created under.
func (st *Store) Fingerprint() string { return st.man.Fingerprint }

// SketchWidth returns the stage-0 sketch width every record carries.
func (st *Store) SketchWidth() int { return st.man.SketchWidth }

// Meta returns the caller-owned manifest metadata (shared map; treat as
// read-only).
func (st *Store) Meta() map[string]string { return st.man.Meta }

// Health reports what the opening of this store recovered, swept or
// quarantined.
func (st *Store) Health() Health {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.health
}

// Stats summarises the store for observability surfaces.
type Stats struct {
	// Segments counts sealed segments plus the active one.
	Segments int
	// LiveRecords and Tombstones partition the stored records.
	LiveRecords, Tombstones int
	// SketchWidth is the stage-0 sketch coefficient count.
	SketchWidth int
}

// Stats returns the store's current counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	dead := 0
	for _, rec := range st.records {
		if st.dead[rec.Seq] {
			dead++
		}
	}
	return Stats{
		Segments:    len(st.man.Sealed) + 1,
		LiveRecords: len(st.records) - dead,
		Tombstones:  dead,
		SketchWidth: st.man.SketchWidth,
	}
}

// Close releases every file handle, including the retired handles kept
// alive for pre-compaction readers. Records loaded from this store must
// not LoadValues afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if st.active != nil {
		st.active.closeFiles()
	}
	if st.tomb != nil {
		st.tomb.Close()
	}
	for _, src := range st.sources {
		src.close()
	}
	for _, src := range st.retired {
		src.close()
	}
	return nil
}
