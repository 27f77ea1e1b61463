package diskcache

import (
	"bytes"
	"sync"
	"testing"

	"transit/internal/obs"
)

// metric is a shorthand counter read.
func metric(reg *obs.Registry, name string) int64 { return reg.Get(name) }

// gauge reads a gauge value from a snapshot by name (-1 when absent).
func gauge(reg *obs.Registry, name string) int64 {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return -1
}

func TestMetricsBasicCounts(t *testing.T) {
	reg := obs.NewRegistry()
	s := open(t, t.TempDir(), Options{Metrics: reg})
	defer s.Close()

	for i := 0; i < 10; i++ {
		s.Put(key(i), val(i))
	}
	for i := 0; i < 10; i++ {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	s.Get(key(999)) // miss

	if h := metric(reg, "diskcache.hits"); h != 10 {
		t.Errorf("hits = %d, want 10", h)
	}
	if m := metric(reg, "diskcache.misses"); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
	if p := metric(reg, "diskcache.puts"); p != 10 {
		t.Errorf("puts = %d, want 10", p)
	}
	if e := gauge(reg, "diskcache.entries"); e != 10 {
		t.Errorf("entries gauge = %d, want 10", e)
	}
	if b := gauge(reg, "diskcache.live_bytes"); b <= 0 {
		t.Errorf("live_bytes gauge = %d, want > 0", b)
	}
	snap := reg.Snapshot()
	for _, want := range []string{"diskcache.lookup_ms", "diskcache.write_ms"} {
		found := false
		for _, h := range snap.Histograms {
			if h.Name == want && h.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("histogram %s missing or empty", want)
		}
	}
}

// TestMetricsConcurrentReadersWithCompaction races concurrent readers
// against two writers whose Puts force evictions: every hit must carry
// its key's value, counters must come out monotone and consistent with
// Stats, and the directory must hold exactly the live entries, with no
// data race (run under -race in CI).
func TestMetricsConcurrentReadersWithCompaction(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	// A cap of about 20 entry files for 64 keys, so the writers' churn
	// evicts while readers hammer Get.
	s := open(t, dir, Options{MaxBytes: 512, Metrics: reg})
	defer s.Close()

	const readers = 4
	const writers = 2
	const rounds = 200
	var readWG, writeWG sync.WaitGroup
	stop := make(chan struct{})
	var prevHits, prevMiss int64
	var monoMu sync.Mutex
	mono := true
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			// Check stop only after the first lookup so every reader
			// records at least one hit or miss even when the writers
			// finish all their rounds before this goroutine is first
			// scheduled.
			for i := 0; ; i++ {
				k := (r*31 + i) % 64
				if got, ok := s.Get(key(k)); ok && !bytes.Equal(got, val(k)) {
					t.Errorf("key %d read %s, want %s", k, got, val(k))
					return
				}
				// Monotonicity probe: counters may only grow.
				monoMu.Lock()
				h, m := metric(reg, "diskcache.hits"), metric(reg, "diskcache.misses")
				if h < prevHits || m < prevMiss {
					mono = false
				}
				prevHits, prevMiss = h, m
				monoMu.Unlock()
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w*13) % 64
				s.Put(key(k), val(k))
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if !mono {
		t.Error("hit/miss counters regressed during concurrent load")
	}
	if metric(reg, "diskcache.evictions") == 0 {
		t.Error("no evictions recorded despite a 512-byte cap")
	}
	if got := metric(reg, "diskcache.puts"); got != writers*rounds {
		t.Errorf("puts counter %d, want %d", got, writers*rounds)
	}
	st := s.Stats()
	if metric(reg, "diskcache.evictions") != st.Evictions {
		t.Errorf("evictions counter %d != Stats().Evictions %d",
			metric(reg, "diskcache.evictions"), st.Evictions)
	}
	if got, want := gauge(reg, "diskcache.entries"), int64(st.Entries); got != want {
		t.Errorf("entries gauge %d != Stats().Entries %d", got, want)
	}
	if got, want := gauge(reg, "diskcache.live_bytes"), st.LiveBytes; got != want {
		t.Errorf("live_bytes gauge %d != Stats().LiveBytes %d", got, want)
	}
	if st.LiveBytes > 512 {
		t.Errorf("live bytes %d over the cap", st.LiveBytes)
	}
	if got := len(files(t, dir)); got != st.Entries {
		t.Errorf("%d files for %d entries", got, st.Entries)
	}
	if total := metric(reg, "diskcache.hits") + metric(reg, "diskcache.misses"); total == 0 {
		t.Error("readers recorded no lookups")
	}
}

// TestMetricsNilRegistryIsNoop pins that a store without a registry works
// identically (the nil-recorder fast path).
func TestMetricsNilRegistryIsNoop(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	s.Put(key(1), val(1))
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("round trip failed without metrics")
	}
	s.Get(key(2))
}
