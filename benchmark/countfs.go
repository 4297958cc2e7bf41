package main

import (
	"sync/atomic"
	"time"

	"sdtw/internal/vfs"
)

// fsCounts is a snapshot of a countingFS's totals.
type fsCounts struct {
	Writes, WriteBytes int64
	Reads, ReadBytes   int64
	Syncs, Renames     int64
	SyncTime           time.Duration
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		Writes: a.Writes - b.Writes, WriteBytes: a.WriteBytes - b.WriteBytes,
		Reads: a.Reads - b.Reads, ReadBytes: a.ReadBytes - b.ReadBytes,
		Syncs: a.Syncs - b.Syncs, Renames: a.Renames - b.Renames,
		SyncTime: a.SyncTime - b.SyncTime,
	}
}

// countingFS wraps a vfs.FS and counts what the storage layer asks of
// it: write and read calls with their bytes, fsyncs (file and
// directory) with the time they took, and renames. It is the vfs.*
// layer's only instrument — the store is driven through it unchanged.
type countingFS struct {
	vfs.FS
	writes, writeBytes atomic.Int64
	reads, readBytes   atomic.Int64
	syncs, renames     atomic.Int64
	syncNS             atomic.Int64
}

func newCountingFS(inner vfs.FS) *countingFS { return &countingFS{FS: inner} }

func (c *countingFS) counts() fsCounts {
	return fsCounts{
		Writes: c.writes.Load(), WriteBytes: c.writeBytes.Load(),
		Reads: c.reads.Load(), ReadBytes: c.readBytes.Load(),
		Syncs: c.syncs.Load(), Renames: c.renames.Load(),
		SyncTime: time.Duration(c.syncNS.Load()),
	}
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Create(name string) (vfs.File, error) { return c.wrap(c.FS.Create(name)) }
func (c *countingFS) Open(name string) (vfs.File, error)   { return c.wrap(c.FS.Open(name)) }

func (c *countingFS) OpenAppend(name string) (vfs.File, int64, error) {
	f, size, err := c.FS.OpenAppend(name)
	wf, err := c.wrap(f, err)
	return wf, size, err
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.FS.ReadFile(name)
	c.reads.Add(1)
	c.readBytes.Add(int64(len(data)))
	return data, err
}

func (c *countingFS) WriteFile(name string, data []byte) error {
	c.writes.Add(1)
	c.writeBytes.Add(int64(len(data)))
	return c.FS.WriteFile(name, data)
}

func (c *countingFS) Rename(oldname, newname string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldname, newname)
}

func (c *countingFS) SyncDir(dir string) error {
	start := time.Now()
	err := c.FS.SyncDir(dir)
	c.syncs.Add(1)
	c.syncNS.Add(int64(time.Since(start)))
	return err
}

// countingFile counts the traffic of one open handle into its FS.
type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.syncNS.Add(int64(time.Since(start)))
	return err
}
