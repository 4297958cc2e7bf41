package vfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCrashed reports an operation on a FaultFS after its simulated
// power cut: the machine is off until Recover.
var ErrCrashed = errors.New("vfs: simulated power cut")

// FaultFS is an in-memory filesystem for crash-consistency testing. It
// tracks, for every file, both the volatile contents the process sees
// and the durable contents a power cut would preserve:
//
//   - File.Sync snapshots the file's current contents as durable.
//   - SyncDir makes the directory's current entries (creations,
//     renames, removals) durable.
//   - CrashAt(n) cuts power during the nth mutating operation: the
//     in-flight write is torn (a prefix survives), everything not
//     synced is dropped, and every later operation fails with
//     ErrCrashed until Recover rebuilds the durable view.
//   - FailAt(n, err) injects err at the nth mutating operation without
//     crashing, for exercising error-return paths.
//
// Mutating operations (Create, OpenAppend, Write, WriteFile, Rename,
// Remove, Truncate, MkdirAll, Sync, SyncDir) are counted; reads are
// not — a crash "during a read" is indistinguishable from a crash at
// the next mutation. Directories are durable on creation: the store
// creates its directory once, and losing it would only re-test the
// trivial nothing-survives case.
//
// The surviving contents of an unsynced suffix are chosen
// deterministically from the FaultFS seed, the file name and the
// suffix length, so a crash sweep is reproducible run to run.
type FaultFS struct {
	mu   sync.Mutex
	seed uint64

	files map[string]*memNode
	dirs  map[string]bool
	// durBind is the durable namespace: which node each name resolves
	// to after a crash. Updated only by SyncDir (and MkdirAll for
	// directories, per the policy above).
	durBind map[string]*memNode

	ops     int
	crashAt int
	failAt  int
	failErr error
	crashed bool
}

type memNode struct {
	data   []byte
	synced []byte // snapshot at last Sync; nil if never synced
}

// NewFaultFS returns an empty FaultFS. The seed fixes which prefix of
// each unsynced suffix survives a crash.
func NewFaultFS(seed int64) *FaultFS {
	return &FaultFS{
		seed:    uint64(seed),
		files:   make(map[string]*memNode),
		dirs:    map[string]bool{".": true, "/": true},
		durBind: make(map[string]*memNode),
	}
}

// CrashAt arms a power cut during the nth mutating operation from now
// (1-based). n <= 0 disarms.
func (f *FaultFS) CrashAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.crashAt = 0
		return
	}
	f.crashAt = f.ops + n
}

// FailAt injects err at the nth mutating operation from now (1-based,
// one-shot): the operation is not applied, err is returned, and later
// operations proceed normally.
func (f *FaultFS) FailAt(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt = f.ops + n
	f.failErr = err
}

// Crash cuts power now.
func (f *FaultFS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
}

// Crashed reports whether the power is (still) cut.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Recover turns the machine back on: the volatile namespace is rebuilt
// from the durable one, each surviving file holds its synced contents
// plus a deterministic prefix of whatever unsynced suffix the page
// cache happened to reach, and operations work again. Open handles
// from before the crash keep their stale nodes — reopen everything,
// as a restarted process would.
func (f *FaultFS) Recover() {
	f.mu.Lock()
	defer f.mu.Unlock()
	files := make(map[string]*memNode, len(f.durBind))
	for name, node := range f.durBind {
		content := f.survived(name, node)
		files[name] = &memNode{data: content, synced: clone(content)}
	}
	f.files = files
	durBind := make(map[string]*memNode, len(files))
	for name, node := range files {
		durBind[name] = node
	}
	f.durBind = durBind
	f.crashed = false
	f.crashAt = 0
}

// survived resolves a node's post-crash contents: the synced snapshot,
// plus — when the volatile contents extend it — a deterministic prefix
// of the unsynced suffix (torn tail). Contents that diverged from the
// snapshot (an unsynced truncate or rewrite) revert to the snapshot.
func (f *FaultFS) survived(name string, node *memNode) []byte {
	synced := node.synced
	if len(node.data) >= len(synced) && string(node.data[:len(synced)]) == string(synced) {
		tail := node.data[len(synced):]
		keep := 0
		if len(tail) > 0 {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s|%d", f.seed, name, len(tail))
			keep = int(h.Sum64() % uint64(len(tail)+1))
		}
		out := make([]byte, 0, len(synced)+keep)
		out = append(out, synced...)
		return append(out, tail[:keep]...)
	}
	return clone(synced)
}

func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// op gates one mutating operation: it counts it, fires an armed fault
// or crash, and reports whether the operation should proceed. Callers
// hold f.mu. tear receives the torn prefix length for the crashing
// write (-1 for a full write).
func (f *FaultFS) op(name string) (tear int, err error) {
	if f.crashed {
		return -1, ErrCrashed
	}
	f.ops++
	if f.failAt > 0 && f.ops == f.failAt {
		f.failAt = 0
		return -1, f.failErr
	}
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
		h := fnv.New64a()
		fmt.Fprintf(h, "tear|%d|%s|%d", f.seed, name, f.ops)
		return int(h.Sum64()), ErrCrashed
	}
	return -1, nil
}

// readable gates one read operation (not counted, but dead after a
// crash).
func (f *FaultFS) readable() error {
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func notExist(name string) error {
	return fmt.Errorf("vfs: %s: %w", name, iofs.ErrNotExist)
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if _, err := f.op(name); err != nil {
		return nil, err
	}
	if _, ok := f.files[name]; ok {
		return nil, fmt.Errorf("vfs: %s already exists", name)
	}
	node := &memNode{}
	f.files[name] = node
	return &faultFile{fs: f, name: name, node: node}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err := f.readable(); err != nil {
		return nil, err
	}
	node, ok := f.files[name]
	if !ok {
		return nil, notExist(name)
	}
	return &faultFile{fs: f, name: name, node: node, readOnly: true}, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if _, err := f.op(name); err != nil {
		return nil, 0, err
	}
	node, ok := f.files[name]
	if !ok {
		node = &memNode{}
		f.files[name] = node
	}
	return &faultFile{fs: f, name: name, node: node}, int64(len(node.data)), nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err := f.readable(); err != nil {
		return nil, err
	}
	node, ok := f.files[name]
	if !ok {
		return nil, notExist(name)
	}
	return clone(node.data), nil
}

// WriteFile implements FS. Like os.WriteFile it leaves the new
// contents unsynced: a crash may drop or tear them.
func (f *FaultFS) WriteFile(name string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	tear, err := f.op(name)
	if err != nil {
		if errors.Is(err, ErrCrashed) && tear >= 0 {
			// The torn write reaches a fresh or truncated file.
			node, ok := f.files[name]
			if !ok {
				node = &memNode{}
				f.files[name] = node
			}
			node.data = clone(data[:tear%(len(data)+1)])
		}
		return err
	}
	node, ok := f.files[name]
	if !ok {
		node = &memNode{}
		f.files[name] = node
	}
	node.data = clone(data)
	return nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	if _, err := f.op(newname); err != nil {
		return err
	}
	node, ok := f.files[oldname]
	if !ok {
		return notExist(oldname)
	}
	delete(f.files, oldname)
	f.files[newname] = node
	return nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if _, err := f.op(name); err != nil {
		return err
	}
	if _, ok := f.files[name]; !ok {
		return notExist(name)
	}
	delete(f.files, name)
	return nil
}

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if _, err := f.op(name); err != nil {
		return err
	}
	node, ok := f.files[name]
	if !ok {
		return notExist(name)
	}
	if size < 0 {
		return fmt.Errorf("vfs: truncate %s to %d", name, size)
	}
	for int64(len(node.data)) < size {
		node.data = append(node.data, 0)
	}
	node.data = clone(node.data[:size])
	return nil
}

// MkdirAll implements FS. Directories are durable on creation.
func (f *FaultFS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	if _, err := f.op(dir); err != nil {
		return err
	}
	for d := dir; ; d = filepath.Dir(d) {
		f.dirs[d] = true
		if d == filepath.Dir(d) {
			break
		}
	}
	return nil
}

// Exists implements FS.
func (f *FaultFS) Exists(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if f.crashed {
		return false
	}
	if _, ok := f.files[name]; ok {
		return true
	}
	return f.dirs[name]
}

// Size implements FS.
func (f *FaultFS) Size(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err := f.readable(); err != nil {
		return 0, err
	}
	node, ok := f.files[name]
	if !ok {
		return 0, notExist(name)
	}
	return int64(len(node.data)), nil
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	if err := f.readable(); err != nil {
		return nil, err
	}
	if !f.dirs[dir] {
		return nil, notExist(dir)
	}
	var names []string
	for name := range f.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	for d := range f.dirs {
		if d != dir && filepath.Dir(d) == dir {
			names = append(names, filepath.Base(d))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: the directory's current entries become the
// durable ones.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	if _, err := f.op(dir); err != nil {
		return err
	}
	if !f.dirs[dir] {
		return notExist(dir)
	}
	for name := range f.durBind {
		if filepath.Dir(name) != dir {
			continue
		}
		if _, ok := f.files[name]; !ok {
			delete(f.durBind, name)
		}
	}
	for name, node := range f.files {
		if filepath.Dir(name) == dir {
			f.durBind[name] = node
		}
	}
	return nil
}

// faultFile is an open FaultFS handle. Reads and writes see the
// volatile node; handles survive Remove/Rename like POSIX descriptors.
type faultFile struct {
	fs       *FaultFS
	name     string
	node     *memNode
	readOnly bool
	closed   bool
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("vfs: %s: write on closed file", h.name)
	}
	if h.readOnly {
		return 0, fmt.Errorf("vfs: %s: write on read-only file", h.name)
	}
	tear, err := h.fs.op(h.name)
	if err != nil {
		if errors.Is(err, ErrCrashed) && tear >= 0 {
			h.node.data = append(h.node.data, p[:tear%(len(p)+1)]...)
		}
		return 0, err
	}
	h.node.data = append(h.node.data, p...)
	return len(p), nil
}

func (h *faultFile) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("vfs: %s: read on closed file", h.name)
	}
	if err := h.fs.readable(); err != nil {
		return 0, err
	}
	if off < 0 || off > int64(len(h.node.data)) {
		return 0, fmt.Errorf("vfs: %s: read at %d beyond %d bytes", h.name, off, len(h.node.data))
	}
	n := copy(p, h.node.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("vfs: %s: short read at %d: %w", h.name, off, errShortRead)
	}
	return n, nil
}

var errShortRead = errors.New("short read")

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fmt.Errorf("vfs: %s: sync on closed file", h.name)
	}
	if _, err := h.fs.op(h.name); err != nil {
		return err
	}
	h.node.synced = clone(h.node.data)
	return nil
}

func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
