package vfs

import (
	"errors"
	"os"
	"syscall"
)

// OsFS is the production FS: a passthrough to the os package. SyncDir
// opens the directory and fsyncs it, which is how POSIX makes directory
// entries durable.
type OsFS struct{}

// OS returns the passthrough filesystem.
func OS() FS { return OsFS{} }

// Create implements FS. The handle appends, like OpenAppend's, so a
// write after a Truncate lands at the new end instead of past a hole.
func (OsFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Open implements FS.
func (OsFS) Open(name string) (File, error) { return os.Open(name) }

// OpenAppend implements FS.
func (OsFS) OpenAppend(name string) (File, int64, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// ReadFile implements FS.
func (OsFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile implements FS.
func (OsFS) WriteFile(name string, data []byte) error {
	return os.WriteFile(name, data, 0o644)
}

// Rename implements FS.
func (OsFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OsFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll implements FS.
func (OsFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Exists implements FS.
func (OsFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

// Size implements FS.
func (OsFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ReadDir implements FS.
func (OsFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

// SyncDir implements FS: fsync on the directory itself.
func (OsFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		// Some filesystems refuse fsync on directories (EINVAL); that is
		// not an I/O failure, so the commit proceeds — the same stance
		// journaled stores take.
		if errors.Is(syncErr, syscall.EINVAL) {
			return nil
		}
		return syncErr
	}
	return closeErr
}
