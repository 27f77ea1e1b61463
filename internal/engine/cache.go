package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"transit/internal/expr"
	"transit/internal/synth"
)

// SolveSpec is the canonical description of one SolveConcolic sub-problem:
// everything that determines the solver's answer. Two specs with equal
// Keys produce identical expressions (the solver is deterministic), which
// is what makes cross-job memoization sound.
type SolveSpec struct {
	Problem  synth.Problem
	Examples []synth.ConcolicExample
	Limits   synth.Limits
}

// Key derives the canonical cache key: a SHA-256 over the universe
// parameters (cache count, integer width, declared enums), the vocabulary
// (every function symbol signature in insertion order — order matters, it
// is the enumeration order), the input variables in order, the output
// variable, the concolic examples (pre ⇒ post in canonical String form),
// and the limits after default resolution (so Limits{} and the explicit
// defaults share an entry). Only the answer-affecting limits participate:
// Limits.NoBankReuse and Limits.NoInterpReduction steer how the search
// runs, not what it returns (the restart fallback and the
// interpretation-reduction partition are output-identical by
// construction; DESIGN.md §10 and §15), so they are deliberately
// excluded.
func (s SolveSpec) Key() string {
	var b strings.Builder
	u := s.Problem.U
	fmt.Fprintf(&b, "u:%d/%d;", u.NumCaches(), u.IntWidth())
	for _, e := range u.Enums() {
		fmt.Fprintf(&b, "enum:%s=%s;", e.Name, strings.Join(e.Values, ","))
	}
	b.WriteString("vocab:")
	for _, f := range s.Problem.Vocab.Funcs() {
		b.WriteString(f.String())
		b.WriteByte(';')
	}
	b.WriteString("vars:")
	for _, v := range s.Problem.Vars {
		fmt.Fprintf(&b, "%s:%s;", v.Name, v.VT)
	}
	fmt.Fprintf(&b, "out:%s:%s;", s.Problem.Output.Name, s.Problem.Output.VT)
	b.WriteString("exs:")
	for _, ex := range s.Examples {
		fmt.Fprintf(&b, "%s==>%s;", ex.Pre, ex.Post)
	}
	lim := s.Limits.WithDefaults()
	fmt.Fprintf(&b, "lim:%d/%d/%d/%d/%d/%v", lim.MaxSize, lim.MaxExprs, lim.MaxIters,
		int64(lim.Timeout), lim.SMTConflicts, lim.NoPrune)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Tier identifies which cache tier answered a lookup — the label every
// layer above (engine spans, server envelopes, access-log lines, bench
// rows) uses to attribute latency to memory, disk, or a real solve.
type Tier string

const (
	// TierMem: the in-memory table had the entry.
	TierMem Tier = "mem"
	// TierDisk: the persistent backend had it (promoted into memory).
	TierDisk Tier = "disk"
	// TierMiss: neither tier had it; the caller solved from scratch.
	TierMiss Tier = "miss"
	// TierNone: no lookup happened (cache disabled).
	TierNone Tier = "none"
)

// CacheEntry is a memoized solve result: the inferred expression plus the
// work stats of the original (cache-missing) solve. Replaying the stored
// stats on a hit keeps aggregate reports (expressions tried, SMT queries)
// identical whether or not the cache intervened, so cached and uncached
// runs are distinguishable only by wall-clock time.
type CacheEntry struct {
	Expr  expr.Expr
	Stats synth.Stats
}

// CacheBackend is a persistent second tier behind a Cache: a key-value
// store of wire-encoded entries (see EncodeEntry/DecodeEntry), typically
// disk-backed and shared across processes. Implementations must be safe
// for concurrent use; Put is best-effort (a backend that cannot persist
// an entry simply forfeits the future hit). The engine/diskcache package
// provides the content-addressed segment-file implementation.
type CacheBackend interface {
	// Get returns the encoded entry stored for key, if any.
	Get(key string) ([]byte, bool)
	// Put stores the encoded entry for key. Keys are content hashes, so
	// racing writers always carry identical payloads.
	Put(key string, val []byte)
	// Close flushes and releases the backend.
	Close() error
}

// Cache is a concurrency-safe memoization table for solved sub-problems.
// Only successful solves are stored. A Cache may be shared across engine
// runs (e.g. across CEGIS iterations of a case study, or across the four
// case-study protocols) to exploit repeated sub-problems. With a backend
// attached, the in-memory table becomes the first tier of a two-tier
// store: Fetch falls through to the backend on a memory miss, and Put
// writes through, so entries survive process restarts and are shared by
// every front-end on the same backend.
type Cache struct {
	mu           sync.Mutex
	m            map[string]CacheEntry
	backend      CacheBackend
	hits, misses int64
	diskHits     int64
}

// NewCache creates an empty cache with no backend.
func NewCache() *Cache { return &Cache{m: make(map[string]CacheEntry)} }

// NewCacheWithBackend creates an empty cache reading through to (and
// writing through to) the given backend. The caller retains ownership of
// the backend and closes it after the cache's last use.
func NewCacheWithBackend(b CacheBackend) *Cache {
	return &Cache{m: make(map[string]CacheEntry), backend: b}
}

// Backend reports the attached backend (nil without one).
func (c *Cache) Backend() CacheBackend { return c.backend }

// Get looks up a key in the in-memory tier only, counting a hit or miss.
// Spec-aware callers use Fetch, which also consults the backend.
func (c *Cache) Get(key string) (CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ent, ok
}

// Fetch is the spec-aware two-tier lookup: it derives the canonical key,
// consults the in-memory table (rehydrating the entry into spec's world,
// exactly as SolveConcolic always has), then falls through to the backend,
// whose entries decode directly against the spec. Backend hits are
// promoted into memory so the decode cost is paid once per process. One
// hit or miss is counted per call; an entry that cannot be rebound (a key
// collision or stale vocabulary) counts as a miss and is re-solved. The
// returned tier says which layer answered (TierMem, TierDisk, TierMiss).
func (c *Cache) Fetch(spec SolveSpec) (res expr.Expr, stats synth.Stats, key string, tier Tier, ok bool) {
	key = spec.Key()
	c.mu.Lock()
	ent, inMem := c.m[key]
	backend := c.backend
	c.mu.Unlock()
	if inMem {
		if re, rok := spec.rehydrate(ent.Expr); rok {
			c.count(true, false)
			return re, ent.Stats, key, TierMem, true
		}
	}
	if backend != nil {
		if raw, bok := backend.Get(key); bok {
			if dec, dok := DecodeEntry(raw, spec); dok {
				c.mu.Lock()
				c.m[key] = dec
				c.mu.Unlock()
				c.count(true, true)
				return dec.Expr, dec.Stats, key, TierDisk, true
			}
		}
	}
	c.count(false, false)
	return nil, synth.Stats{}, key, TierMiss, false
}

func (c *Cache) count(hit, disk bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
		if disk {
			c.diskHits++
		}
	} else {
		c.misses++
	}
}

// Put stores a successful solve in memory and, when a backend is
// attached, writes the encoded entry through to it. Concurrent writers
// racing on one key store identical entries (the solver is
// deterministic), so last-write-wins is safe. Entries whose expressions
// cannot be encoded (never the case for solver output) stay memory-only.
func (c *Cache) Put(key string, ent CacheEntry) {
	c.mu.Lock()
	c.m[key] = ent
	backend := c.backend
	c.mu.Unlock()
	if backend != nil {
		if raw, err := EncodeEntry(ent); err == nil {
			backend.Put(key, raw)
		}
	}
}

// Len reports the number of memoized problems.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Counters reports lookup hits and misses so far.
func (c *Cache) Counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// DiskHits reports how many of the hits were served by the backend (a
// subset of Counters' hits; 0 without a backend).
func (c *Cache) DiskHits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskHits
}

// HitRate is hits / lookups, or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	hits, misses := c.Counters()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
