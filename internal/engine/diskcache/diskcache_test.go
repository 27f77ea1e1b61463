package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func val(i int) []byte { return []byte(fmt.Sprintf(`{"payload":%d}`, i)) }
func key(i int) string { return fmt.Sprintf("%064x", i) }

// files lists the names in dir.
func files(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put(key(i), val(i))
	}
	for i := 0; i < 100; i++ {
		got, ok := s.Get(key(i))
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d: got %s want %s", i, got, val(i))
		}
	}
	if _, ok := s.Get(key(1000)); ok {
		t.Fatal("absent key reported present")
	}
	// The file is the checksum line and the value, readable by others.
	info, err := os.Stat(filepath.Join(dir, key(7)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("entry file mode %v, want 0644", info.Mode().Perm())
	}
	data, _ := os.ReadFile(filepath.Join(dir, key(7)))
	if want := append(appendHeader(nil, val(7)), val(7)...); !bytes.Equal(data, want) {
		t.Fatalf("entry file %q, want %q", data, want)
	}
	// A second Put of a key replaces its value and its byte count.
	before := s.Stats().LiveBytes
	s.Put(key(7), []byte(`{"payload":"replaced"}`))
	if got, ok := s.Get(key(7)); !ok || string(got) != `{"payload":"replaced"}` {
		t.Fatalf("replaced key reads %s, %v", got, ok)
	}
	if st := s.Stats(); st.Entries != 100 || st.LiveBytes != before+int64(len(`"replaced"`)-1) {
		t.Fatalf("after replacing: %+v, live bytes before %d", st, before)
	}
}

func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 50; i++ {
		s.Put(key(i), val(i))
	}
	live := s.Stats().LiveBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	defer s2.Close()
	if s2.Len() != 50 || s2.Stats().LiveBytes != live {
		t.Fatalf("after reopen: %+v, want 50 entries and %d bytes", s2.Stats(), live)
	}
	for i := 0; i < 50; i++ {
		got, ok := s2.Get(key(i))
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d lost across reopen", i)
		}
	}
}

// TestCorruptRecordIgnored damages entry files behind a closed store — a
// changed value byte, a torn file, a file shorter than its checksum line
// — and checks that each reads as a miss and is deleted, while an intact
// entry still reads back.
func TestCorruptRecordIgnored(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		s.Put(key(i), val(i))
	}
	s.Close()

	path := func(i int) string { return filepath.Join(dir, key(i)) }
	data, err := os.ReadFile(path(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(1), bytes.Replace(data, []byte("payload"), []byte("pwnload"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path(2), headerLen+4); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path(3), 3); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	defer s2.Close()
	if got, ok := s2.Get(key(0)); !ok || !bytes.Equal(got, val(0)) {
		t.Fatal("intact entry lost")
	}
	for _, i := range []int{1, 2, 3} {
		if _, ok := s2.Get(key(i)); ok {
			t.Fatalf("damaged entry %d served", i)
		}
		if _, err := os.Stat(path(i)); !os.IsNotExist(err) {
			t.Fatalf("damaged entry %d not deleted: %v", i, err)
		}
	}
	if s2.Len() != 2 {
		t.Fatalf("%d entries after the misses, want 2", s2.Len())
	}
}

// TestLRUEviction fills the store past its cap and checks that the
// least-recently-used entries (and only those) are gone, from the index
// and from the directory. An entry file is about 23 bytes (a 9-byte
// checksum line and the value; the key is the file name), so the cap
// holds about 20 of them.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 500})
	defer s.Close()
	n := 60
	for i := 0; i < n; i++ {
		s.Put(key(i), val(i))
		// Keep key 0 hot so recency, not insertion order, decides.
		if _, ok := s.Get(key(0)); !ok {
			t.Fatalf("hot key evicted at %d", i)
		}
	}
	st := s.Stats()
	if st.LiveBytes > 500 {
		t.Fatalf("live bytes %d over cap", st.LiveBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if _, ok := s.Get(key(n - 1)); !ok {
		t.Fatal("newest key evicted")
	}
	// The coldest middle keys must be gone.
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("cold key survived past the cap")
	}
	if got := len(files(t, dir)); got != st.Entries {
		t.Fatalf("%d files for %d entries: evicted files not deleted", got, st.Entries)
	}
}

// TestEvictionAcrossReopenKeepsRecentKey reopens a store under a smaller
// cap: Open evicts down to it by the files' mtimes, and a key read just
// before the restart outlives keys written after it.
func TestEvictionAcrossReopenKeepsRecentKey(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 40; i++ {
		s.Put(key(i), val(i))
	}
	// Pin the write order into the mtimes, an hour in the past, so the
	// order does not depend on the file system's timestamp granularity.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 40; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, key(i)), at, at); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	s.Close()

	s2 := open(t, dir, Options{MaxBytes: 10 * int64(headerLen+len(val(10)))})
	defer s2.Close()
	st := s2.Stats()
	if st.Entries != 10 || st.Evictions != 30 {
		t.Fatalf("after reopen under the smaller cap: %+v, want 10 entries, 30 evictions", st)
	}
	if _, ok := s2.Get(key(0)); !ok {
		t.Fatal("recently read key evicted at reopen")
	}
	for i := 31; i < 40; i++ {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("newest key %d evicted at reopen", i)
		}
	}
	if _, ok := s2.Get(key(30)); ok {
		t.Fatal("older key survived the smaller cap")
	}
	if got := len(files(t, dir)); got != 10 {
		t.Fatalf("%d files after reopen eviction, want 10", got)
	}
}

// TestSegmentRotationAndCompactionKeepsData churns the same keys under
// interleaved reads and verifies every live key still reads back.
func TestSegmentRotationAndCompactionKeepsData(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 1 << 20})
	defer s.Close()
	for i := 0; i < 200; i++ {
		s.Put(key(i%20), val(i%20))
		if _, ok := s.Get(key(i % 7)); i >= 7 && !ok {
			t.Fatalf("key %d missing during churn", i%7)
		}
	}
	for i := 0; i < 20; i++ {
		got, ok := s.Get(key(i))
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d wrong after churn", i)
		}
	}
	if got := len(files(t, dir)); got != 20 {
		t.Fatalf("%d files for 20 keys", got)
	}
}

// TestOpenRemovesTempFiles leaves a Put's temporary file behind, as a
// process killed before the rename would, with files that are not
// entries — among them an older layout's segment and index — beside it:
// Open deletes the temporary file and indexes none of the others.
func TestOpenRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	others := []string{"seg-000001.ndjson", "index.json", key(1)[:63], key(1) + ".bak", "notes"}
	for _, name := range append([]string{tmpPrefix + "123"}, others...) {
		if err := os.WriteFile(filepath.Join(dir, name), append(appendHeader(nil, val(1)), val(1)...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, Options{})
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("%d entries from files that are not entries", s.Len())
	}
	got := files(t, dir)
	if len(got) != len(others) {
		t.Fatalf("files after Open: %v, want %v", got, others)
	}
}

// TestPutRefusesNonHexKey checks that only 64-hex keys name files.
func TestPutRefusesNonHexKey(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	for _, k := range []string{"", "abc", "../" + key(1)[3:], key(1)[:63] + "G", key(1)[:63] + "A", key(1) + "0"} {
		s.Put(k, val(1))
		if _, ok := s.Get(k); ok {
			t.Fatalf("key %q stored", k)
		}
	}
	if got := files(t, dir); len(got) != 0 || s.Len() != 0 {
		t.Fatalf("non-hex keys wrote %v", got)
	}
}

func TestWritableProbe(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Writable(); err != nil {
		t.Fatalf("fresh store not writable: %v", err)
	}
	// The probe must not leave scratch files behind.
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("probe left %v behind", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Writable(); err == nil {
		t.Fatal("closed store reports writable")
	}
}
