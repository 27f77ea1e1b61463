package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"sync"

	"transit/internal/engine/diskcache"
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
// defaults share an entry). Limits.NoBankReuse can change which
// consistent expression the search returns (ROADMAP item 2), so it is
// appended when set; a spec without it keeps the key it always had. The
// key text is appended into one buffer and hashed once: the vocabulary's
// signatures as expr.Vocabulary rendered them in Add, the examples
// through expr.AppendString, numbers through strconv.
func (s SolveSpec) Key() string {
	b := make([]byte, 0, 4096)
	u := s.Problem.U
	b = strconv.AppendInt(append(b, "u:"...), int64(u.NumCaches()), 10)
	b = strconv.AppendUint(append(b, '/'), uint64(u.IntWidth()), 10)
	b = append(b, ';')
	for _, e := range u.Enums() {
		b = append(append(append(b, "enum:"...), e.Name...), '=')
		for i, v := range e.Values {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, v...)
		}
		b = append(b, ';')
	}
	b = append(b, "vocab:"...)
	for _, sig := range s.Problem.Vocab.Sigs() {
		b = append(append(b, sig...), ';')
	}
	b = append(b, "vars:"...)
	for _, v := range s.Problem.Vars {
		b = appendVarDecl(b, v)
	}
	b = appendVarDecl(append(b, "out:"...), s.Problem.Output)
	b = append(b, "exs:"...)
	for _, ex := range s.Examples {
		b = append(expr.AppendString(b, ex.Pre), "==>"...)
		b = append(expr.AppendString(b, ex.Post), ';')
	}
	lim := s.Limits.WithDefaults()
	b = append(b, "lim:"...)
	for _, n := range [...]int64{int64(lim.MaxSize), lim.MaxExprs, int64(lim.MaxIters),
		int64(lim.Timeout), lim.SMTConflicts} {
		b = append(strconv.AppendInt(b, n, 10), '/')
	}
	b = strconv.AppendBool(b, lim.NoPrune)
	if lim.NoBankReuse {
		b = append(b, "/nobank"...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendVarDecl appends a variable's part of the key text, name:type;.
func appendVarDecl(b []byte, v *expr.Var) []byte {
	return append(append(append(append(b, v.Name...), ':'), v.VT.String()...), ';')
}

// Tier identifies which cache tier answered a lookup — the label every
// layer above (engine spans, server envelopes, access-log lines, bench
// rows) uses to attribute latency to memory, disk, or a real solve.
type Tier string

const (
	// TierMem: the in-memory table had the entry.
	TierMem Tier = "mem"
	// TierDisk: the disk store had it (promoted into memory).
	TierDisk Tier = "disk"
	// TierMiss: neither tier had it; the caller solved from scratch.
	TierMiss Tier = "miss"
	// TierNone: no lookup happened (no cache).
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

// Cache is a concurrency-safe memoization table for solved sub-problems.
// Only successful solves are stored. A Cache may be shared across engine
// runs (e.g. across the iterations of a case study, or across the four
// case-study protocols) to exploit repeated sub-problems. With a disk
// store attached, the in-memory table becomes the first tier of a
// two-tier store: Fetch falls through to the store on a memory miss, and
// Put writes through, so entries survive process restarts and are shared
// by every front-end on the same store. Both tiers hold the one entry
// form of codec.go, in memory as it is and on disk JSON-encoded.
type Cache struct {
	mu    sync.Mutex
	m     map[string]*wireEntry
	store *diskcache.Store
}

// NewCache creates an empty cache with no disk store.
func NewCache() *Cache { return &Cache{m: make(map[string]*wireEntry)} }

// NewCacheWithBackend creates an empty cache reading through to (and
// writing through to) the given disk store. The caller retains ownership
// of the store and closes it after the cache's last use.
func NewCacheWithBackend(store *diskcache.Store) *Cache {
	return &Cache{m: make(map[string]*wireEntry), store: store}
}

// Store reports the attached disk store (nil without one).
func (c *Cache) Store() *diskcache.Store { return c.store }

// Fetch is the spec-aware two-tier lookup: it derives the canonical key,
// consults the in-memory table, then falls through to the disk store. A
// disk entry is parsed once and promoted into memory in the same form,
// so later hits stay in-process. Either tier's entry answers through the
// same bind: rebound into spec's world, of the hole's output type, with a
// trace of the right shape, or else a miss that is re-solved. The
// returned tier says which layer answered (TierMem, TierDisk, TierMiss);
// the cache keeps no counters of its own, its caller counts lookups by
// tier (Solve's engine.cache span).
func (c *Cache) Fetch(spec SolveSpec) (res expr.Expr, stats synth.Stats, key string, tier Tier, ok bool) {
	key = spec.Key()
	c.mu.Lock()
	we := c.m[key]
	c.mu.Unlock()
	if ent, ok := we.bind(spec); ok {
		return ent.Expr, ent.Stats, key, TierMem, true
	}
	if c.store != nil {
		if raw, ok := c.store.Get(key); ok {
			we := parseEntry(raw)
			if ent, ok := we.bind(spec); ok {
				c.mu.Lock()
				c.m[key] = we
				c.mu.Unlock()
				return ent.Expr, ent.Stats, key, TierDisk, true
			}
		}
	}
	return nil, synth.Stats{}, key, TierMiss, false
}

// Put stores a successful solve in memory and, when a disk store is
// attached, writes the encoded entry through to it. Concurrent writers
// racing on one key store identical entries (the solver is
// deterministic), so last-write-wins is safe. An entry whose expression
// cannot be encoded (never the case for solver output) is not stored.
func (c *Cache) Put(key string, ent CacheEntry) {
	we, err := toWire(ent)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.m[key] = we
	c.mu.Unlock()
	if c.store != nil {
		if raw, err := json.Marshal(we); err == nil {
			c.store.Put(key, raw)
		}
	}
}

// Len reports the number of memoized problems.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
