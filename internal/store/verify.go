// Verify and Repair: the offline integrity surface behind `sdtw fsck`.
// Verify walks a store directory read-only and reports every problem it
// can find; Repair applies the same recovery an Open performs (torn-tail
// truncation, orphan sweep, quarantine) and reports what changed.

package store

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"

	"sdtw/internal/vfs"
)

// Issue is one problem Verify found. Err wraps the matching sentinel
// (ErrCorruptManifest, ErrCorruptSegment, ErrTornTail, ErrQuarantined),
// so callers branch with errors.Is.
type Issue struct {
	// Path is the offending file, relative to the store directory.
	Path string
	// Repairable reports whether Repair (or a plain Open) would fix
	// this without losing acknowledged data.
	Repairable bool
	Err        error
}

// Report is the outcome of a Verify pass.
type Report struct {
	// Records counts intact hot records across loadable segments.
	Records int
	// Segments counts segments checked (sealed + active).
	Segments int
	Issues   []Issue
}

// Clean reports a store with nothing wrong.
func (r *Report) Clean() bool { return len(r.Issues) == 0 }

// Repairable reports whether every issue found is fixable by Repair
// without losing acknowledged data (quarantine counts: the data is
// already unreadable).
func (r *Report) Repairable() bool {
	for _, is := range r.Issues {
		if !is.Repairable {
			return false
		}
	}
	return true
}

// Verify checks the store in dir without modifying anything: manifest
// shape, sealed segment checksums and record counts, every value block
// (sealed ones included — a full fsck reads what lazy loading would),
// the active segment's crash state, the tombstone log, and leftover
// orphan files. A nil fsys means the real filesystem.
func Verify(dir string, fsys vfs.FS) (*Report, error) {
	rep := &Report{}
	found := func(path string, repairable bool, err error) {
		rep.Issues = append(rep.Issues, Issue{Path: path, Repairable: repairable, Err: err})
	}
	// Scratch store: reuses the loading code without opening anything
	// for writing.
	st := newStore(dir, fsys)
	man, err := readManifest(st.fs, dir)
	if err != nil {
		found(manifestName, false, err)
		return rep, nil
	}
	st.man = man
	defer st.Close()

	for _, q := range man.Quarantined {
		found(segName(q.Seg, "hot")+quarantineExt, true,
			fmt.Errorf("segment %d quarantined (%d records): %s: %w", q.Seg, q.Records, q.Reason, ErrQuarantined))
	}

	for _, sealed := range man.Sealed {
		rep.Segments++
		mark := len(st.records)
		if err := st.loadSealed(sealed); err != nil {
			st.records = st.records[:mark]
			found(segName(sealed.Seg, "hot"), true, err)
			continue
		}
		// Sealed value blocks are lazy at serve time; fsck reads them
		// all.
		// Not repairable: the open path never reads sealed value blocks,
		// so Repair would not quarantine this — the operator chooses
		// (restore the segment, or quarantine it by hand).
		badBlocks := st.badValBlocks(sealed.Seg, st.records[mark:])
		if badBlocks > 0 {
			found(segName(sealed.Seg, "val"), false,
				fmt.Errorf("segment %d: %d value blocks fail their checksums: %w", sealed.Seg, badBlocks, ErrCorruptSegment))
		}
		rep.Records += len(st.records) - mark
	}

	rep.Segments++
	scan, err := st.scanActive(man.Active)
	switch {
	case err != nil:
		found(segName(man.Active, "hot"), false, err)
	case scan.headerTorn:
		found(segName(man.Active, "hot"), true,
			fmt.Errorf("segment %d: torn or missing header (%d bytes survive): %w", man.Active, scan.tornBytes, ErrTornTail))
	case !scan.intact():
		dropped := len(scan.recs) - scan.keep
		found(segName(man.Active, "hot"), true,
			fmt.Errorf("segment %d: torn tail (%d records intact, %d lost, %d hot + %d val bytes to truncate): %w",
				man.Active, scan.keep, dropped, scan.hotSize-scan.hotEnd, scan.valSize-scan.valEnd, ErrTornTail))
		rep.Records += scan.keep
	default:
		rep.Records += scan.keep
	}

	if err := st.verifyTombstones(found); err != nil {
		return nil, err
	}
	if err := st.verifyOrphans(found); err != nil {
		return nil, err
	}
	return rep, nil
}

// badValBlocks counts the records of segment seg whose value blocks
// fail verification.
func (st *Store) badValBlocks(seg int, recs []*Record) int {
	f, magicOK, err := openValFile(st.fs, st.segPath(seg, "val"))
	if err != nil {
		return len(recs)
	}
	defer f.Close()
	if !magicOK {
		return len(recs)
	}
	bad := 0
	for _, rec := range recs {
		if _, err := readValBlock(f, rec.off, rec.N); err != nil {
			bad++
		}
	}
	return bad
}

// verifyTombstones checks the tombstone log the way loadTombstones
// reads it, reporting a torn final entry as repairable and anything
// earlier as corruption.
func (st *Store) verifyTombstones(found func(string, bool, error)) error {
	data, err := st.fs.ReadFile(filepath.Join(st.dir, tombstonesName))
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: reading tombstone log: %w", err)
	}
	_, tornAt, err := parseTombstones(data)
	switch {
	case err != nil:
		found(tombstonesName, false, err)
	case tornAt >= 0:
		found(tombstonesName, true,
			fmt.Errorf("torn final tombstone entry (%d bytes): %w", len(data)-tornAt, ErrTornTail))
	}
	return nil
}

// verifyOrphans reports the files an Open would sweep as orphans.
func (st *Store) verifyOrphans(found func(string, bool, error)) error {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", st.dir, err)
	}
	for _, name := range st.man.orphans(names) {
		found(name, true, fmt.Errorf("unreferenced file (crashed compact or commit residue)"))
	}
	return nil
}

// Repair opens the store with quarantine allowed — performing the
// orphan sweep, torn-tail truncation and sealed-segment quarantine an
// Open performs — commits the result, and reports what changed. Data
// that was acknowledged durable is never touched; what Repair discards
// was either never acknowledged or already unreadable. A nil fsys means
// the real filesystem.
func Repair(dir string, fsys vfs.FS) (Health, error) {
	st, err := OpenWith(dir, OpenOptions{FS: fsys, AllowQuarantine: true})
	if err != nil {
		return Health{}, err
	}
	h := st.Health()
	if err := st.Close(); err != nil {
		return h, err
	}
	return h, nil
}
