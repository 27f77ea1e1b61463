// Package diskcache is the persistent tier behind the engine's memo
// cache: a content-addressed, disk-backed key-value store of wire-encoded
// solve results, shared across engine runs and across process restarts.
//
// Layout: one file per entry, named by its key (the 64-hex
// engine.SolveSpec.Key). A file holds the value's CRC-32C as 8 lowercase
// hex digits, a newline, then the value. Put writes the file under a
// temporary name and renames it into place, so a reader sees a whole
// entry or none; Get re-checks the checksum, and a file that fails it is
// deleted and reads as a miss. Keys are content hashes of the
// sub-problem, so racing writers of one key carry equivalent payloads.
//
// Total entry bytes are capped: past the cap the least-recently-used
// files are deleted. A hit refreshes its file's mtime, and Open orders
// the entries by mtime, so recency survives a restart.
package diskcache

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"transit/internal/obs"
)

// DefaultMaxBytes is the entry-byte cap when Options.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20

// tmpPrefix names files that are not entries yet: a Put's file before
// its rename, and the Writable probe. Open deletes leftovers.
const tmpPrefix = ".tmp-"

// headerLen is the length of an entry file's checksum line.
const headerLen = 9

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// MaxBytes caps the bytes of all entry files; 0 means DefaultMaxBytes.
	MaxBytes int64
	// Sync fsyncs every entry file before its rename. Off by default: the
	// cache is a cache — losing an entry on power failure costs re-solving,
	// not correctness — and the checksum makes a torn file a miss.
	Sync bool
	// Metrics, when non-nil, receives the store's counters (diskcache.hits,
	// .misses, .puts, .evictions), latency histograms (diskcache.lookup_ms,
	// .write_ms — the write includes the fsync under Sync), and size gauges
	// (diskcache.entries, .live_bytes). Nil disables recording.
	Metrics *obs.Registry
}

// storeMetrics holds the hoisted metric handles; every field is nil (a
// no-op recorder) when Options.Metrics is nil.
type storeMetrics struct {
	hits, misses, puts, evictions *obs.Counter
	lookupMS, writeMS             *obs.Histogram
	entries, liveBytes            *obs.Gauge
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		hits:      reg.Counter("diskcache.hits"),
		misses:    reg.Counter("diskcache.misses"),
		puts:      reg.Counter("diskcache.puts"),
		evictions: reg.Counter("diskcache.evictions"),
		lookupMS:  reg.Histogram("diskcache.lookup_ms"),
		writeMS:   reg.Histogram("diskcache.write_ms"),
		entries:   reg.Gauge("diskcache.entries"),
		liveBytes: reg.Gauge("diskcache.live_bytes"),
	}
}

// entry is one LRU slot: an entry file's key and its size in bytes.
type entry struct {
	key string
	n   int64
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Entries   int   `json:"entries"`
	LiveBytes int64 `json:"live_bytes"`
	Evictions int64 `json:"evictions"`
}

// Store is the disk-backed cache, the second tier an engine.Cache holds
// directly. It is safe for concurrent use by any number of front-ends in
// one process.
// Processes share a directory one at a time: a restarted serve daemon
// picks up its predecessor's entries.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	index     map[string]*list.Element // key → slot in lru
	lru       *list.List               // front = most recently used; values are *entry
	liveBytes int64
	evictions int64
	closed    bool

	met storeMetrics
}

// Open opens (creating if needed) the store in dir. It deletes leftover
// temporary files, indexes every entry file by its mtime (oldest least
// recently used), and evicts down to the byte cap. Files whose names are
// not keys are ignored.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	type found struct {
		entry
		mtime time.Time
	}
	var files []found
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A Put or probe that died before its rename or removal. A
			// failed removal leaves the file for the next Open.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !validKey(name) || !de.Type().IsRegular() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // removed since the listing
		}
		files = append(files, found{entry{name, info.Size()}, info.ModTime()})
	}
	// ReadDir lists by name, so equal mtimes keep key order.
	sort.SliceStable(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: make(map[string]*list.Element, len(files)),
		lru:   list.New(),
		met:   newStoreMetrics(opts.Metrics),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		s.index[f.key] = s.lru.PushFront(&entry{f.key, f.n})
		s.liveBytes += f.n
	}
	s.evictLocked()
	s.publishLocked()
	return s, nil
}

// validKey reports whether key is 64 lowercase hex digits, the only
// names the store reads or writes.
func validKey(key string) bool {
	return len(key) == 64 && strings.Trim(key, "0123456789abcdef") == ""
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key) }

// appendHeader appends val's checksum line to b.
func appendHeader(b, val []byte) []byte {
	return fmt.Appendf(b, "%08x\n", crc32.Checksum(val, castagnoli))
}

// publishLocked publishes the store's current sizes to the gauges.
func (s *Store) publishLocked() {
	s.met.entries.Set(int64(len(s.index)))
	s.met.liveBytes.Set(s.liveBytes)
}

// Get returns the value stored for key, if present and intact. A file
// that cannot be read or fails its checksum is dropped from the index,
// deleted, and reported as a miss. A hit refreshes the file's mtime.
func (s *Store) Get(key string) ([]byte, bool) {
	start := time.Now()
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		s.met.lookupMS.Observe(time.Since(start))
	}()
	elem, ok := s.index[key]
	if !ok || s.closed {
		s.met.misses.Inc()
		return nil, false
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil || len(data) < headerLen ||
		!bytes.Equal(data[:headerLen], appendHeader(nil, data[headerLen:])) {
		// A failed removal leaves the file for Open to index again; the
		// next Get of it fails the same check.
		_ = os.Remove(path)
		s.dropLocked(elem)
		s.publishLocked()
		s.met.misses.Inc()
		return nil, false
	}
	s.lru.MoveToFront(elem)
	// The mtime only orders entries at the next Open; failing to set it
	// costs recency, not data.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	s.met.hits.Inc()
	return data[headerLen:], true
}

// Put stores val under key, replacing any entry the key has (a stored
// entry the caller could not decode is overwritten by its re-solve).
// Keys that are not 64 lowercase hex digits are refused. Persistence
// failures are swallowed: the entry just stays memory-only upstream.
func (s *Store) Put(key string, val []byte) {
	if !validKey(key) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	start := time.Now()
	n, err := s.writeLocked(key, val)
	s.met.writeMS.Observe(time.Since(start))
	if err != nil {
		return
	}
	s.met.puts.Inc()
	if elem, ok := s.index[key]; ok {
		s.dropLocked(elem)
	}
	s.index[key] = s.lru.PushFront(&entry{key, n})
	s.liveBytes += n
	s.evictLocked()
	s.publishLocked()
}

// writeLocked writes key's entry file: a temporary file, fsynced under
// Options.Sync, renamed into place. It returns the file's size.
func (s *Store) writeLocked(key string, val []byte) (int64, error) {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	data := append(appendHeader(make([]byte, 0, headerLen+len(val)), val), val...)
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil && s.opts.Sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(key))
	}
	if err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	return int64(len(data)), nil
}

// evictLocked enforces the byte cap by deleting least-recently-used
// entry files, always keeping the newest entry.
func (s *Store) evictLocked() {
	for s.liveBytes > s.opts.MaxBytes && s.lru.Len() > 1 {
		elem := s.lru.Back()
		// A failed removal leaves the file for the next Open, which
		// evicts it again if the store is still over its cap.
		_ = os.Remove(s.path(elem.Value.(*entry).key))
		s.dropLocked(elem)
		s.evictions++
		s.met.evictions.Inc()
	}
}

// dropLocked removes elem's entry from the index and the byte count.
func (s *Store) dropLocked(elem *list.Element) {
	e := s.lru.Remove(elem).(*entry)
	delete(s.index, e.key)
	s.liveBytes -= e.n
}

// Len reports the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Writable probes whether the store's directory still accepts writes by
// creating and removing a scratch file. The /readyz endpoint calls it: a
// disk-backed serve process whose cache volume went read-only (or full)
// should stop admitting jobs before solves start failing mid-run.
func (s *Store) Writable() error {
	s.mu.Lock()
	closed, dir := s.closed, s.dir
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("diskcache: store is closed")
	}
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("diskcache: %s not writable: %w", dir, err)
	}
	name := f.Name()
	err = f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	if err != nil {
		return fmt.Errorf("diskcache: %s not writable: %w", dir, err)
	}
	return nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: len(s.index), LiveBytes: s.liveBytes, Evictions: s.evictions}
}

// Close marks the store closed: later lookups miss and later Puts are
// dropped. The entry files stay for the next Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
