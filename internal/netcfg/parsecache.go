package netcfg

import (
	"crypto/sha256"
	"sync"
	"time"

	"repro/internal/obs"
)

// Parsed is one configuration revision's complete parse product: the IR
// device, the parser's own warnings, and the full syntax-check feed (parse
// warnings plus the dialect's lint pass). Keeping all three together lets a
// cache answer both "give me the device" and "is the syntax clean" from a
// single parse. The device is shared between callers and must be treated
// as immutable — every verifier in the suite reads the IR without
// modifying it.
type Parsed struct {
	Device        *Device
	ParseWarnings []ParseWarning
	CheckWarnings []ParseWarning

	// memo holds products derived from Device on demand (see Memo). Only
	// a ParseCache sets it, on the products it hands out.
	memo *sync.Map
}

// memoEntry is one derived product, built once.
type memoEntry struct {
	once sync.Once
	v    any
}

// Memo returns the product build derives from p.Device under key. On a
// product handed out by a ParseCache, build runs at most once per key
// and every caller, concurrent ones included, shares its result, which
// must therefore be treated as immutable; on any other Parsed, build runs
// on every call. Keys follow context.WithValue's convention: an
// unexported type per deriving package, so packages never collide.
func (p *Parsed) Memo(key any, build func() any) any {
	if p.memo == nil {
		return build()
	}
	e, ok := p.memo.Load(key)
	if !ok {
		e, _ = p.memo.LoadOrStore(key, &memoEntry{})
	}
	m := e.(*memoEntry)
	m.once.Do(func() { m.v = build() })
	return m.v
}

// ParseFunc parses one configuration revision into its Parsed product.
type ParseFunc func(text string) *Parsed

// parseShards is the stripe count of the revision map. The key is a
// SHA-256 of the configuration text, so stripe selection by the first key
// byte is uniform; 64 independently-locked shards keep concurrent repair
// workers (and a shard server's batch pool) from serializing on one lock.
const parseShards = 64

// parseShard is one independently-locked stripe of the revision map.
type parseShard struct {
	mu      sync.RWMutex
	entries map[[sha256.Size]byte]*Parsed
}

// ParseCache memoizes a ParseFunc keyed by the SHA-256 of the
// configuration text, so each revision of a config is parsed exactly once
// no matter how many verifier stages and repair iterations inspect it. It
// is safe for concurrent use — the map is striped into independently
// locked shards — and concurrent misses on the same revision may parse
// twice, but both results are identical and one wins.
type ParseCache struct {
	parse ParseFunc

	shards [parseShards]parseShard
	// Counters are obs instruments from birth; SetObs adopts them into a
	// registry (counts preserved) and optionally binds a trace sink that
	// sees one parse span per cache-missing revision.
	hits   *obs.Counter
	misses *obs.Counter
	tracer *obs.Tracer

	// Stanza-level sub-cache (see stanza.go): when a dialect mounts
	// StanzaSupport, a whole-config miss is answered by splitting the text
	// into stanzas and reassembling cached fragment parses, so an edit to
	// one policy re-parses one stanza instead of the whole device.
	stanzaFields
}

// NewParseCache returns an empty cache over the given parser.
func NewParseCache(parse ParseFunc) *ParseCache {
	c := &ParseCache{parse: parse, hits: &obs.Counter{}, misses: &obs.Counter{}}
	c.fragHits, c.fragMisses, c.fragDiskHits = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
	for i := range c.shards {
		c.shards[i].entries = map[[sha256.Size]byte]*Parsed{}
	}
	return c
}

// Parse returns the memoized parse product for the text, parsing on first
// sight of the revision.
func (c *ParseCache) Parse(text string) *Parsed {
	b := []byte(text)
	key := sha256.Sum256(b)
	s := &c.shards[key[0]%parseShards]
	s.mu.RLock()
	p := s.entries[key]
	s.mu.RUnlock()
	if p != nil {
		c.hits.Inc()
		return p
	}
	var start time.Time
	if c.tracer != nil {
		start = time.Now()
	}
	if c.stanza != nil {
		p = c.stanzaParse(text, b)
	}
	if p == nil {
		p = c.parse(text)
	}
	if c.tracer != nil {
		c.tracer.Span(start, obs.Event{Stage: obs.StageParse, Bytes: int64(len(b))})
	}
	s.mu.Lock()
	if prev, ok := s.entries[key]; ok {
		// A concurrent miss beat us to it; keep the first result so every
		// caller shares one device.
		p = prev
		c.hits.Inc()
	} else {
		p.memo = &sync.Map{}
		s.entries[key] = p
		c.misses.Inc()
	}
	s.mu.Unlock()
	return p
}

// Stats returns the hit/miss counters. Misses equal the number of distinct
// revisions parsed.
func (c *ParseCache) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}

// SetObs adopts the cache's counters — whole-config and fragment — into
// a metrics registry and binds an optional trace sink; either may be
// nil. Telemetry never changes a parse product.
func (c *ParseCache) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	c.tracer = tr
	if reg == nil {
		return
	}
	reg.RegisterCounter("cosynth_parse_cache_hits_total", c.hits)
	reg.RegisterCounter("cosynth_parse_cache_misses_total", c.misses)
	reg.RegisterCounter("cosynth_parse_fragment_hits_total", c.fragHits)
	reg.RegisterCounter("cosynth_parse_fragment_misses_total", c.fragMisses)
	reg.RegisterCounter("cosynth_parse_fragment_disk_hits_total", c.fragDiskHits)
}

// Len returns the number of cached revisions.
func (c *ParseCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}
