// Package vfs is the filesystem seam under the segment store: a small
// interface covering exactly the operations the storage layer performs,
// with two implementations. OsFS passes through to the os package and
// serves production traffic. FaultFS is an in-memory filesystem that
// injects errors at the Nth operation, tears writes mid-record, and
// simulates power cuts by dropping everything not explicitly synced —
// so every crash-recovery path in the store is drivable from a test.
//
// The interface makes durability explicit where POSIX leaves it
// implicit: File.Sync persists a file's contents, and SyncDir persists
// a directory's entries (creations, renames, removals). Code that skips
// either barrier is exactly as fragile under FaultFS power cuts as it
// would be on a real disk.
package vfs

import "io"

// File is an open file handle. Writers append (the store never seeks a
// write handle); readers use ReadAt and may keep reading after the file
// is removed or renamed away, matching POSIX unlink semantics.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync persists every write made through this handle (fsync). Until
	// it returns, a power cut may drop or tear the unsynced suffix.
	Sync() error
}

// FS is the set of filesystem operations the storage layer performs.
// Paths are plain strings; implementations do not interpret them beyond
// directory separators.
type FS interface {
	// Create opens a fresh file for appending; it fails if the file
	// already exists (O_CREATE|O_EXCL|O_WRONLY|O_APPEND).
	Create(name string) (File, error)
	// Open opens an existing file for reading (ReadAt).
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent, and
	// reports its current size (the append offset).
	OpenAppend(name string) (File, int64, error)
	// ReadFile returns the file's full contents.
	ReadFile(name string) ([]byte, error)
	// WriteFile replaces name's contents. Like os.WriteFile it does NOT
	// sync: a power cut after WriteFile may leave the file empty or
	// torn. Callers needing durability write through Create + Sync.
	WriteFile(name string, data []byte) error
	// Rename atomically replaces newname with oldname. The rename is
	// durable only after SyncDir on the containing directory.
	Rename(oldname, newname string) error
	// Remove unlinks name. Open handles keep reading.
	Remove(name string) error
	// Truncate cuts name to size bytes. Durable only after a Sync on an
	// open handle (or SyncDir, for implementations that journal it).
	Truncate(name string, size int64) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Exists reports whether name exists (file or directory).
	Exists(name string) bool
	// Size reports the file's current length in bytes.
	Size(name string) (int64, error)
	// ReadDir lists the names (not paths) of dir's entries.
	ReadDir(dir string) ([]string, error)
	// SyncDir persists dir's entries: files created, renamed or removed
	// in dir before the call survive a power cut after it.
	SyncDir(dir string) error
}
