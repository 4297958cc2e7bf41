package sdtw

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"sdtw/internal/lower"
	"sdtw/internal/retrieve"
	"sdtw/internal/sketch"
	"sdtw/internal/store"
	"sdtw/internal/vfs"
)

// This file is the segment-store face of the index — the only on-disk
// form an index has. SaveStore exports a warm index into a segment
// store, OpenIndex (and friends) serve straight from one with only the
// hot sections — IDs, endpoints, sketches, envelopes — resident, and
// Add/Remove on an opened index write through to the store, so the
// collection scales past what the raw values would occupy in RAM. An
// Index is the one-store case of everything here; a ShardedIndex holds
// one store per shard.

// Manifest metadata keys the index layer stores alongside the segment
// format's own fields, and the two values of the kind key.
const (
	storeMetaKind    = "kind"
	storeMetaLength  = "length"
	storeMetaRadius  = "radius"
	storeMetaShards  = "shards"
	storeMetaShard   = "shard"
	storeMetaNextSeq = "next_seq"

	snapshotKindEngine   = "engine"
	snapshotKindWindowed = "windowed"
)

// shardDirName names the per-shard store directory under a sharded
// store root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// StoreStats summarises a store-backed index's segment store(s):
// sharded indexes aggregate across their per-shard stores.
type StoreStats struct {
	// Segments counts sealed segments plus the active one(s).
	Segments int
	// LiveRecords and Tombstones partition the stored records.
	LiveRecords, Tombstones int
	// SketchWidth is the stage-0 sketch coefficient count every record
	// carries.
	SketchWidth int
	// Health reports what opening the store(s) recovered, swept or
	// quarantined — aggregated across shards for a sharded index.
	// Health.Degraded() means quarantined records are unavailable.
	Health StoreHealth
	// ShardHealth breaks Health down per shard for a sharded index
	// (nil for an unsharded one).
	ShardHealth []StoreHealth
}

// StoreHealth reports the damage a segment store is carrying: what its
// open recovered, swept, or sidelined. The zero value is a fully intact
// store; Degraded() reports whether quarantined segments are holding
// records back from serving.
type StoreHealth = store.Health

// OpenOption adjusts how the Open* entry points open their segment
// store(s).
type OpenOption struct{ apply func(*store.OpenOptions) }

// AllowQuarantine opts the open into degraded serving: a corrupt sealed
// segment is sidelined (renamed to seg-*.quarantine and recorded in the
// manifest) and the survivors are served, instead of the whole open
// failing with ErrCorruptSegment. The quarantine is sticky — once a
// store holds quarantined segments, reopening it requires this option
// until the operator resolves them (see `sdtw fsck`). Quarantined and
// recovered counts surface through StoreStats.Health. An unsharded
// store whose every record is quarantined still fails the open
// (ErrEmptyCollection); a sharded root serves the surviving shards.
func AllowQuarantine() OpenOption {
	return OpenOption{func(o *store.OpenOptions) { o.AllowQuarantine = true }}
}

// withStoreFS points the open at an alternate filesystem; crash tests
// inject a vfs.FaultFS here.
func withStoreFS(fsys vfs.FS) OpenOption {
	return OpenOption{func(o *store.OpenOptions) { o.FS = fsys }}
}

// storeOpenOptions folds the public options onto the store layer's.
func storeOpenOptions(open []OpenOption) store.OpenOptions {
	var o store.OpenOptions
	for _, op := range open {
		op.apply(&o)
	}
	return o
}

// storeSet is the store-backed state of an index: one segment store for
// an Index, one per shard for a ShardedIndex (stores is nil for an index
// that lives in RAM only). storeMu serialises every mutation that writes
// through — Add, Remove, Compact, SyncStore, CloseStore — so RAM and
// disk change together. Both index types embed it, which is how they
// come by StoreBacked, Compact, StoreStats, SyncStore and CloseStore.
type storeSet struct {
	storeMu sync.Mutex
	stores  []*store.Store
	// sharded marks a ShardedIndex's set: errors name the shard and
	// StoreStats carries the per-shard health breakdown.
	sharded bool
}

// each runs op over every store under the set's lock on behalf of the
// public method name. The first failure is returned; keepGoing runs the
// remaining stores regardless (CloseStore must release every handle).
func (ss *storeSet) each(name string, keepGoing bool, op func(*store.Store) error) error {
	if ss.stores == nil {
		return fmt.Errorf("sdtw: %s: %w", name, ErrNotStoreBacked)
	}
	ss.storeMu.Lock()
	defer ss.storeMu.Unlock()
	var first error
	for i, st := range ss.stores {
		err := op(st)
		if err == nil || first != nil {
			continue
		}
		if ss.sharded {
			first = fmt.Errorf("sdtw: %s: shard %d: %w", name, i, err)
		} else {
			first = fmt.Errorf("sdtw: %s: %w", name, err)
		}
		if !keepGoing {
			break
		}
	}
	return first
}

// StoreBacked reports whether the index serves from a segment store
// (one per shard for a sharded index).
func (ss *storeSet) StoreBacked() bool { return ss.stores != nil }

// Compact rewrites every store's live records into fresh segments,
// dropping tombstoned space. Searches keep serving throughout.
func (ss *storeSet) Compact() error { return ss.each("Compact", false, (*store.Store).Compact) }

// SyncStore flushes every store's active segment to stable storage: once
// it returns, every Add acknowledged before the call survives a power
// cut. Remove needs no barrier — tombstones are synced as they are
// appended.
func (ss *storeSet) SyncStore() error { return ss.each("SyncStore", false, (*store.Store).Sync) }

// CloseStore releases every store's file handles. Searches may keep
// running against already-materialised values, but candidates whose
// values were never loaded will fail; close after draining.
func (ss *storeSet) CloseStore() error { return ss.each("CloseStore", true, (*store.Store).Close) }

// StoreStats sums the stores' counters and the health their opens
// reported (recovered, swept, quarantined); a sharded index also gets
// the per-shard breakdown in ShardHealth.
func (ss *storeSet) StoreStats() (StoreStats, error) {
	if ss.stores == nil {
		return StoreStats{}, fmt.Errorf("sdtw: StoreStats: %w", ErrNotStoreBacked)
	}
	var out StoreStats
	for _, st := range ss.stores {
		s := st.Stats()
		out.Segments += s.Segments
		out.LiveRecords += s.LiveRecords
		out.Tombstones += s.Tombstones
		out.SketchWidth = s.SketchWidth
		h := st.Health()
		if ss.sharded {
			out.ShardHealth = append(out.ShardHealth, h)
		}
		out.Health.Quarantined += h.Quarantined
		out.Health.QuarantinedRecords += h.QuarantinedRecords
		out.Health.RecoveredRecords += h.RecoveredRecords
		out.Health.TruncatedBytes += h.TruncatedBytes
		out.Health.OrphansSwept += h.OrphansSwept
	}
	return out, nil
}

// add is the write-through Add both index types share. Under storeMu,
// admit stages s in RAM and calls persist with the insertion sequence and
// envelope it staged; persist builds the record from them and appends it
// to store i. Both index types publish s only once persist has
// succeeded: the flat index's core appends after it, a sharded index
// stores the snapshot it staged.
func (ss *storeSet) add(i int, s Series, admit func(persist func(seq uint64, env lower.Envelope) error) error) error {
	if s.ID == "" {
		return fmt.Errorf("sdtw: Add: a store-backed index needs non-empty series IDs: %w", ErrNoID)
	}
	ss.storeMu.Lock()
	defer ss.storeMu.Unlock()
	st := ss.stores[i]
	err := admit(func(seq uint64, env lower.Envelope) error {
		rec, err := newRecord(s, env, st.SketchWidth())
		if err != nil {
			return err
		}
		rec.Seq = seq
		return st.Append(rec)
	})
	if err != nil {
		return fmt.Errorf("sdtw: Add: %w", err)
	}
	return nil
}

// remove is the write-through Remove both index types share. Under
// storeMu, unpublish resolves the ID and calls tombstone with the
// insertion sequence the series holds before it takes the series out of
// RAM: the tombstone is made durable first, so a failed write leaves the
// series searchable and a retry can succeed, where the reverse order
// would drop it from searches, answer the retry with ErrUnknownID, and
// resurrect it at the next open.
func (ss *storeSet) remove(i int, id string, unpublish func(tombstone func(seq uint64) error) error) error {
	ss.storeMu.Lock()
	defer ss.storeMu.Unlock()
	err := unpublish(func(seq uint64) error { return ss.stores[i].Tombstone(id, seq) })
	if err != nil {
		return fmt.Errorf("sdtw: Remove: %w", err)
	}
	return nil
}

// newRecord is the one place a series becomes a store record: the hot
// endpoints, its envelope and the width-w sketch derived from it, and
// the raw values. The caller assigns Seq.
func newRecord(s Series, env lower.Envelope, w int) (rec store.Record, err error) {
	if s.ID == "" {
		return rec, fmt.Errorf("a store keys removals on non-empty series IDs: %w", ErrNoID)
	}
	if len(s.Values) == 0 {
		return rec, fmt.Errorf("series %q: %w", s.ID, ErrEmptySeries)
	}
	sk, err := sketch.FromEnvelope(env, w)
	if err != nil {
		return rec, fmt.Errorf("series %q: %w", s.ID, err)
	}
	return store.Record{
		ID:       s.ID,
		Label:    s.Label,
		N:        len(s.Values),
		First:    s.Values[0],
		Last:     s.Values[len(s.Values)-1],
		Sketch:   sk,
		Envelope: env,
		Values:   s.Values,
	}, nil
}

// storeExport is one store of an export: where it goes and what it
// holds. seqs nil means insertion sequence = position.
type storeExport struct {
	dir  string
	meta map[string]string
	data []Series
	envs []lower.Envelope
	seqs []uint64
}

// exportMeta builds the manifest metadata every exported store carries;
// a sharded export adds its shard keys on top. The windowed geometry
// comes from the family, so an index holding no series exports it too.
func exportMeta(f backendFamily, nextSeq uint64) map[string]string {
	meta := map[string]string{
		storeMetaKind:    f.kind,
		storeMetaNextSeq: strconv.FormatUint(nextSeq, 10),
	}
	if f.kind == snapshotKindWindowed {
		meta[storeMetaLength] = strconv.Itoa(f.length)
		meta[storeMetaRadius] = strconv.Itoa(f.radius)
	}
	return meta
}

// exportStores is the one export routine behind both SaveStores: refuse
// an index that already serves from a store (its series hold no values
// to write), then create every store, write its records with sketches at
// DefaultSketchWidth, close them all, and on any failure remove root —
// but only if this call created it.
func (ss *storeSet) exportStores(root, fingerprint string, segRecords int, parts []storeExport) error {
	if ss.StoreBacked() {
		return fmt.Errorf("sdtw: SaveStore: the index already serves from a segment store: %w", ErrStoreBacked)
	}
	_, statErr := os.Stat(root)
	created := os.IsNotExist(statErr)
	var stores []*store.Store
	err := func() error {
		for _, p := range parts {
			st, err := store.Create(p.dir, store.Config{
				Fingerprint:    fingerprint,
				SketchWidth:    DefaultSketchWidth,
				SegmentRecords: segRecords,
				Meta:           p.meta,
			})
			if err != nil {
				return err
			}
			stores = append(stores, st)
			for i, s := range p.data {
				rec, err := newRecord(s, p.envs[i], DefaultSketchWidth)
				if err != nil {
					return fmt.Errorf("series %d: %w", i, err)
				}
				rec.Seq = uint64(i)
				if p.seqs != nil {
					rec.Seq = p.seqs[i]
				}
				if err := st.Append(rec); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	for _, st := range stores {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		if created {
			os.RemoveAll(root)
		}
		return fmt.Errorf("sdtw: SaveStore: %w", err)
	}
	return nil
}

// SaveStore exports the index into a segment store rooted at dir
// (created if missing; refused with ErrStoreExists if dir already holds
// a store). Every series needs a non-empty ID — the store keys removals
// on (ID, insertion sequence). The store persists everything the
// cascade's pre-DP stages need hot (sketches, envelopes, endpoints) and
// the raw values cold, so OpenIndex serves from it without loading
// values into RAM. Export during a quiet period for a point-in-time
// snapshot.
func (ix *Index) SaveStore(dir string) error {
	data, envs := ix.core.Snapshot()
	return ix.exportStores(dir, ix.family.backend.Fingerprint(), ix.segRecords, []storeExport{{
		dir:  dir,
		meta: exportMeta(ix.family, uint64(len(data))),
		data: data,
		envs: envs,
	}})
}

// SaveStore exports the sharded index into a store root at dir: one
// segment store per shard under shard-0000, shard-0001, …, each
// carrying the shard count, its own shard number, and the index's
// next insertion sequence, so OpenShardedIndex rebuilds the index —
// including the cross-shard tie-break order — exactly.
func (si *ShardedIndex) SaveStore(dir string) error {
	parts := make([]storeExport, len(si.shards))
	for i := range parts {
		snap := si.shards[i].snap.Load()
		p := &parts[i]
		p.dir = filepath.Join(dir, shardDirName(i))
		p.data, p.envs = snap.Core.Snapshot()
		p.seqs = snap.Seqs
	}
	// Captured after the shards, so every captured sequence is below it.
	nextSeq := si.nextSeq.Load()
	for i := range parts {
		meta := exportMeta(si.family, nextSeq)
		meta[storeMetaShards] = strconv.Itoa(len(si.shards))
		meta[storeMetaShard] = strconv.Itoa(i)
		parts[i].meta = meta
	}
	return si.exportStores(dir, si.family.backend.Fingerprint(), si.segRecords, parts)
}

// openStores opens the store(s) an index of the given kind was exported
// to — dir itself for an unsharded index, every shard-NNNN under it for
// a sharded one — and resolves the backend family to serve them with
// (familyOf reads what it needs from store 0's manifest). It returns the
// next insertion sequence too: the largest any store implies. The open
// is atomic: any missing, corrupt or inconsistent shard closes the ones
// already opened and fails the whole open — a cluster must never come
// up over a subset of its shards. Under AllowQuarantine a shard with
// corrupt sealed segments opens degraded (its survivors serve, possibly
// none) instead of failing the whole open; structural failures (a
// missing shard, a corrupt manifest, mixed configurations) still fail
// atomically — quarantine bounds the damage, it never papers over a
// store that cannot describe itself.
func openStores(dir string, sharded bool, kind string, familyOf func(*store.Store) (backendFamily, error),
	open []OpenOption) ([]*store.Store, uint64, backendFamily, error) {
	so := storeOpenOptions(open)
	var stores []*store.Store
	fail := func(err error) ([]*store.Store, uint64, backendFamily, error) {
		closeStores(stores)
		return nil, 0, backendFamily{}, err
	}
	// One store, unless shard 0's manifest says how many there are.
	shards := 1
	for i := 0; i < shards; i++ {
		path, label := dir, ""
		if sharded {
			path, label = filepath.Join(dir, shardDirName(i)), fmt.Sprintf("shard %d: ", i)
		}
		st, err := store.OpenWith(path, so)
		if err != nil {
			return fail(fmt.Errorf("sdtw: %s%w", label, err))
		}
		stores = append(stores, st)
		if sharded && i == 0 {
			shards, err = strconv.Atoi(st.Meta()[storeMetaShards])
			if err != nil || shards < 1 {
				return fail(fmt.Errorf("sdtw: shard 0 has shard count %q: %w", st.Meta()[storeMetaShards], ErrCorruptManifest))
			}
		}
	}
	// The one kind and fingerprint check behind every Open*: the store
	// must hold the family of index the constructor serves, written under
	// the configuration it is being opened under — its envelopes and
	// sketches would bound a different distance otherwise. Fingerprints
	// compare in canonical form, so a width the band builder resolves to
	// the same band (0 and 0.1, or any width under a strategy that reads
	// none) is the same configuration.
	st0 := stores[0]
	if got := st0.Meta()[storeMetaKind]; got != kind {
		return fail(fmt.Errorf("sdtw: store holds a %q index, want %q: %w", got, kind, ErrConfigMismatch))
	}
	f, err := familyOf(st0)
	if err != nil {
		return fail(err)
	}
	fp0 := canonicalFingerprint(st0.Fingerprint())
	if fp := f.backend.Fingerprint(); canonicalFingerprint(fp) != fp0 {
		return fail(fmt.Errorf("sdtw: store written under %q, opening under %q: %w",
			st0.Fingerprint(), fp, ErrConfigMismatch))
	}
	var nextSeq uint64
	for i, st := range stores {
		// Every shard store must agree on the cluster configuration: a
		// mixed-config directory (shards written by different indexes, or
		// a shard swapped in from elsewhere) must refuse to open rather
		// than serve merged results two configurations disagree on.
		if canonicalFingerprint(st.Fingerprint()) != fp0 {
			return fail(fmt.Errorf("sdtw: shard %d written under %q, shard 0 under %q: %w",
				i, st.Fingerprint(), st0.Fingerprint(), ErrConfigMismatch))
		}
		if got := st.Meta()[storeMetaKind]; got != kind {
			return fail(fmt.Errorf("sdtw: shard %d holds a %q index, shard 0 a %q: %w", i, got, kind, ErrConfigMismatch))
		}
		if got := st.Meta()[storeMetaShards]; got != st0.Meta()[storeMetaShards] {
			return fail(fmt.Errorf("sdtw: shard %d expects %q shards, shard 0 %q: %w",
				i, got, st0.Meta()[storeMetaShards], ErrConfigMismatch))
		}
		if got := st.Meta()[storeMetaShard]; sharded && got != strconv.Itoa(i) {
			return fail(fmt.Errorf("sdtw: directory %s holds shard %q: %w", shardDirName(i), got, ErrConfigMismatch))
		}
		if st.SketchWidth() != st0.SketchWidth() {
			return fail(fmt.Errorf("sdtw: shard %d has sketch width %d, shard 0 %d: %w",
				i, st.SketchWidth(), st0.SketchWidth(), ErrConfigMismatch))
		}
		// The larger of the manifest's recorded counter and one past the
		// highest stored sequence (appends after the manifest was written).
		next := st.NextSeq()
		if v, err := strconv.ParseUint(st.Meta()[storeMetaNextSeq], 10, 64); err == nil && v > next {
			next = v
		}
		nextSeq = max(nextSeq, next)
	}
	return stores, nextSeq, f, nil
}

// closeStores releases the stores of an open that did not complete.
func closeStores(stores []*store.Store) {
	for _, st := range stores {
		st.Close()
	}
}

// engineStoreFamily is the familyOf of the engine Open*: the family comes
// from the caller's options, the store only has to match it.
func engineStoreFamily(opts Options) func(*store.Store) (backendFamily, error) {
	return func(*store.Store) (backendFamily, error) { return engineFamily(opts) }
}

// windowedStoreFamily is the familyOf of the windowed Open*: length and
// radius travel in the manifest. Rebuilding the family from the store's
// own parameters must reproduce the fingerprint it was written under; a
// mismatch means the fingerprint format was revved (or the manifest
// edited) and the persisted envelopes cannot be trusted.
func windowedStoreFamily(st *store.Store) (backendFamily, error) {
	length, err := strconv.Atoi(st.Meta()[storeMetaLength])
	if err != nil || length <= 0 {
		return backendFamily{}, fmt.Errorf("sdtw: store has windowed length %q: %w", st.Meta()[storeMetaLength], ErrCorruptManifest)
	}
	radius, err := strconv.Atoi(st.Meta()[storeMetaRadius])
	if err != nil {
		return backendFamily{}, fmt.Errorf("sdtw: store has windowed radius %q: %w", st.Meta()[storeMetaRadius], ErrCorruptManifest)
	}
	return windowedFamily(length, radius)
}

// coldRecords lowers live store records onto the cascade's cold-series
// form, with their insertion sequences position-parallel.
func coldRecords(live []*store.Record) ([]retrieve.ColdSeries, []uint64) {
	cold := make([]retrieve.ColdSeries, len(live))
	seqs := make([]uint64, len(live))
	for i, rec := range live {
		cold[i] = retrieve.ColdSeries{
			ID:       rec.ID,
			Label:    rec.Label,
			N:        rec.N,
			First:    rec.First,
			Last:     rec.Last,
			Envelope: rec.Envelope,
			Sketch:   rec.Sketch,
			Load:     rec.LoadValues,
		}
		seqs[i] = rec.Seq
	}
	return cold, seqs
}

// OpenIndex opens a segment store written by SaveStore for an
// engine-backed index and serves from it: sketches, envelopes and
// endpoints load eagerly, raw values stay on disk until a candidate
// survives the lower-bound cascade. opts must describe the same engine
// configuration the store was written under (ErrConfigMismatch
// otherwise); a WidthFrac that resolves to the same band counts as the
// same. Add and Remove write through to the store. Crash residue
// (a torn active-segment tail, orphaned segment files) is repaired on
// the way in; AllowQuarantine additionally opts into serving around
// corrupt sealed segments.
func OpenIndex(dir string, opts Options, open ...OpenOption) (*Index, error) {
	return openIndex(dir, snapshotKindEngine, engineStoreFamily(opts), open)
}

// OpenWindowedIndex opens a segment store written by SaveStore for a
// windowed index; its configuration (length and radius) travels inside
// the store's manifest, so no Options are needed.
func OpenWindowedIndex(dir string, open ...OpenOption) (*Index, error) {
	return openIndex(dir, snapshotKindWindowed, windowedStoreFamily, open)
}

// openIndex builds the store-backed Index: cold series from the store's
// live records, write-through bookkeeping from their sequences.
func openIndex(dir, kind string, familyOf func(*store.Store) (backendFamily, error), open []OpenOption) (*Index, error) {
	stores, nextSeq, f, err := openStores(dir, false, kind, familyOf, open)
	if err != nil {
		return nil, err
	}
	cold, seqList := coldRecords(stores[0].Live())
	core, err := retrieve.RestoreCold(f.backend, cold, stores[0].SketchWidth(), f.workers, true)
	if err == nil && len(cold) == 0 {
		// A flat index is never empty; a sharded root may open over nothing.
		err = fmt.Errorf("cannot index: %w", ErrEmptyCollection)
	}
	if err != nil {
		closeStores(stores)
		return nil, fmt.Errorf("sdtw: %w", err)
	}
	seqs := make(map[string]uint64, len(cold))
	for i, cs := range cold {
		seqs[cs.ID] = seqList[i]
	}
	return &Index{core: core, family: f,
		storeSet: storeSet{stores: stores}, seqs: seqs, nextSeq: nextSeq}, nil
}

// addStore is the write-through Add of a store-backed Index: the core
// stages s, persist appends its record, and only then does the core
// publish it, so a failed append leaves nothing of s to roll back and no
// search ever returns it.
func (ix *Index) addStore(s Series) error {
	return ix.add(0, s, func(persist func(uint64, lower.Envelope) error) error {
		seq := ix.nextSeq
		err := ix.core.Add(s, func(env lower.Envelope) error {
			ix.nextSeq++
			return persist(seq, env)
		})
		if err != nil {
			return err
		}
		ix.seqs[s.ID] = seq
		return nil
	})
}

// removeStore is the write-through Remove of a store-backed Index.
// storeMu serialises every store-backed mutation, so nothing changes
// between the lookup and the removal.
func (ix *Index) removeStore(id string) error {
	return ix.remove(0, id, func(tombstone func(uint64) error) error {
		seq, ok := ix.seqs[id]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownID, id)
		}
		if ix.core.Len() == 1 {
			return fmt.Errorf("cannot remove the last series %q: %w", id, ErrEmptyCollection)
		}
		if err := tombstone(seq); err != nil {
			return err
		}
		if err := ix.core.Remove(id); err != nil {
			return err
		}
		delete(ix.seqs, id)
		return nil
	})
}

// OpenShardedIndex opens a sharded store root written by
// ShardedIndex.SaveStore for an engine-backed cluster and serves from
// it. opts must describe the same engine configuration the stores were
// written under. The open is atomic across shards: one bad shard store
// fails the whole open — except under AllowQuarantine, where a shard
// with corrupt sealed segments serves its survivors (per-shard damage
// surfaces in StoreStats.ShardHealth).
func OpenShardedIndex(dir string, opts Options, open ...OpenOption) (*ShardedIndex, error) {
	return openShardedIndex(dir, snapshotKindEngine, engineStoreFamily(opts), open)
}

// OpenShardedWindowedIndex opens a sharded store root written by
// ShardedIndex.SaveStore for a windowed cluster; length and radius
// travel inside the manifests.
func OpenShardedWindowedIndex(dir string, open ...OpenOption) (*ShardedIndex, error) {
	return openShardedIndex(dir, snapshotKindWindowed, windowedStoreFamily, open)
}

// openShardedIndex rebuilds the index from the per-shard stores' live
// records.
func openShardedIndex(dir, kind string, familyOf func(*store.Store) (backendFamily, error), open []OpenOption) (*ShardedIndex, error) {
	stores, nextSeq, f, err := openStores(dir, true, kind, familyOf, open)
	if err != nil {
		return nil, err
	}
	parts := make([][]retrieve.ColdSeries, len(stores))
	seqs := make([][]uint64, len(stores))
	for i, st := range stores {
		parts[i], seqs[i] = coldRecords(st.Live())
	}
	si, err := restoreShardedIndex(f, stores[0].SketchWidth(), parts, seqs, nextSeq)
	if err != nil {
		closeStores(stores)
		return nil, err
	}
	si.storeSet = storeSet{stores: stores, sharded: true}
	return si, nil
}
