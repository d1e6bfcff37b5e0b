package durable

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS abstracts the filesystem under the journal. Production runs on OSFS;
// the deterministic simulation harness (internal/dst) substitutes MemFS so
// a crash — every unsynced byte and every un-fsynced directory entry lost
// — can be simulated in-process and recovered from without touching disk.
type FS interface {
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// ReadDirNames lists the file names directly inside dir, sorted.
	ReadDirNames(dir string) ([]string, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically replaces newpath with oldpath's file.
	Rename(oldpath, newpath string) error
	// Open opens a file for reading.
	Open(name string) (io.ReadCloser, error)
	// Create opens a file for writing from scratch. With excl set the
	// call fails if the file exists (O_EXCL); otherwise it truncates.
	Create(name string, excl bool) (File, error)
	// OpenWrite opens an existing file for writing without truncating.
	OpenWrite(name string) (File, error)
	// SyncDir makes dir's entries (creations, renames, removals) durable.
	SyncDir(dir string) error
}

// File is the writable handle durable needs from an FS.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes written bytes to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	// Seek repositions the write cursor.
	Seek(offset int64, whence int) (int64, error)
}

// OSFS is the production filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) ReadDirNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (OSFS) Remove(name string) error                { return os.Remove(name) }
func (OSFS) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }
func (OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (OSFS) Create(name string, excl bool) (File, error) {
	flag := os.O_CREATE | os.O_WRONLY
	if excl {
		flag |= os.O_EXCL
	} else {
		flag |= os.O_TRUNC
	}
	return os.OpenFile(name, flag, 0o644)
}

func (OSFS) OpenWrite(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY, 0o644)
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// MemFS is an in-memory filesystem with crash semantics: Sync pins a
// file's durable byte prefix, SyncDir pins its directory entry, and
// Crash discards everything beyond those pins — exactly the state an OS
// could leave behind after power loss under POSIX fsync rules.
//
// Crash rebuilds every surviving file object, so handles opened before
// the crash keep writing into orphaned buffers instead of corrupting the
// recovered incarnation (mirroring a dead process's lost page cache).
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memFile{}, dirs: map[string]bool{}}
}

type memFile struct {
	mu      sync.Mutex
	data    []byte
	synced  int  // durable byte prefix (file content fsynced)
	durable bool // directory entry fsynced (survives a crash)
	orphan  bool // detached by a crash; writes go nowhere visible
}

// Crash simulates power loss: files whose directory entry was never
// synced vanish, surviving files lose every byte past their last Sync,
// and all pre-crash handles are detached. It returns the number of
// files lost entirely.
func (m *MemFS) Crash() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	lost := 0
	next := make(map[string]*memFile, len(m.files))
	for name, f := range m.files {
		f.mu.Lock()
		f.orphan = true
		if !f.durable {
			lost++
			f.mu.Unlock()
			continue
		}
		nf := &memFile{
			data:    append([]byte(nil), f.data[:f.synced]...),
			synced:  f.synced,
			durable: true,
		}
		f.mu.Unlock()
		next[name] = nf
	}
	m.files = next
	return lost
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[filepath.Clean(dir)] = true
	return nil
}

func (m *MemFS) ReadDirNames(dir string) ([]string, error) {
	clean := filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[clean] {
		return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == clean {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Remove(name string) error {
	clean := filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[clean]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, clean)
	return nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	oldc, newc := filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldc]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldc)
	f.mu.Lock()
	f.durable = false // the new entry needs its own SyncDir
	f.mu.Unlock()
	m.files[newc] = f
	return nil
}

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	clean := filepath.Clean(name)
	m.mu.Lock()
	f, ok := m.files[clean]
	m.mu.Unlock()
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	f.mu.Lock()
	snap := append([]byte(nil), f.data...)
	f.mu.Unlock()
	return io.NopCloser(bytes.NewReader(snap)), nil
}

func (m *MemFS) Create(name string, excl bool) (File, error) {
	clean := filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[clean]; ok {
		if excl {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
		}
		f.mu.Lock()
		f.data = f.data[:0]
		f.synced = 0
		f.mu.Unlock()
		return &memHandle{f: f}, nil
	}
	f := &memFile{}
	m.files[clean] = f
	return &memHandle{f: f}, nil
}

func (m *MemFS) OpenWrite(name string) (File, error) {
	clean := filepath.Clean(name)
	m.mu.Lock()
	f, ok := m.files[clean]
	m.mu.Unlock()
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memHandle{f: f}, nil
}

func (m *MemFS) SyncDir(dir string) error {
	clean := filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		if filepath.Dir(name) == clean {
			f.mu.Lock()
			f.durable = true
			f.mu.Unlock()
		}
	}
	return nil
}

// memHandle is one open write handle with its own cursor.
type memHandle struct {
	f      *memFile
	off    int64
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	end := h.off + int64(len(p))
	if grow := end - int64(len(h.f.data)); grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
	}
	copy(h.f.data[h.off:end], p)
	h.off = end
	return len(p), nil
}

func (h *memHandle) Sync() error {
	if h.closed {
		return fs.ErrClosed
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if !h.f.orphan {
		h.f.synced = len(h.f.data)
	}
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	if h.closed {
		return fs.ErrClosed
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("memfs: truncate to negative size %d", size)
	}
	if grow := size - int64(len(h.f.data)); grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
	} else {
		h.f.data = h.f.data[:size]
	}
	h.f.synced = min(h.f.synced, int(size))
	return nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.f.data)) + offset
	default:
		return 0, fmt.Errorf("memfs: bad whence %d", whence)
	}
	if h.off < 0 {
		return 0, fmt.Errorf("memfs: negative seek offset")
	}
	return h.off, nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}
