package netcfg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func countingParser(calls *atomic.Int64) ParseFunc {
	return func(text string) *Parsed {
		calls.Add(1)
		return &Parsed{Device: NewDevice(text, VendorCisco)}
	}
}

func TestParseCacheParsesEachRevisionOnce(t *testing.T) {
	var calls atomic.Int64
	c := NewParseCache(countingParser(&calls))
	a1 := c.Parse("rev-a")
	a2 := c.Parse("rev-a")
	if a1 != a2 {
		t.Error("same revision must return the same shared product")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("parse calls = %d, want 1", got)
	}
	// A changed revision is a different key: it must be parsed anew.
	b := c.Parse("rev-b")
	if b == a1 {
		t.Error("different revision must not share a product")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("parse calls = %d, want 2", got)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestParseCacheConcurrent(t *testing.T) {
	var calls atomic.Int64
	c := NewParseCache(countingParser(&calls))
	const workers, revisions = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rev := fmt.Sprintf("rev-%d", (i+w)%revisions)
				if p := c.Parse(rev); p.Device.Hostname != rev {
					t.Errorf("wrong product for %s", rev)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != revisions {
		t.Errorf("len = %d, want %d", c.Len(), revisions)
	}
	hits, misses := c.Stats()
	if hits+misses != workers*200 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, workers*200)
	}
}

// TestParseCacheStripedHammer drives every stripe of the sharded revision
// map from 16 goroutines at once — enough concurrent writers that a
// single-mutex regression shows up under -race and as contention, and
// enough distinct revisions (512, SHA-keyed) that all 64 shards see
// traffic. Every caller must observe the one shared product per revision.
func TestParseCacheStripedHammer(t *testing.T) {
	var calls atomic.Int64
	c := NewParseCache(countingParser(&calls))
	const workers, revisions, rounds = 16, 512, 300
	products := make([]atomic.Pointer[Parsed], revisions)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (i*workers + w*7) % revisions
				p := c.Parse(fmt.Sprintf("rev-%d", n))
				if prev := products[n].Swap(p); prev != nil && prev != p {
					t.Errorf("revision %d returned two distinct products", n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != revisions {
		t.Errorf("len = %d, want %d", c.Len(), revisions)
	}
	// First-writer-wins dedup may parse a colliding revision twice, but
	// the cache must never under-parse.
	if got := calls.Load(); got < revisions {
		t.Errorf("parse calls = %d, want >= %d", got, revisions)
	}
}

// TestParsedMemoBuildsOncePerCachedProduct: a cached product runs each
// key's build once however many goroutines ask, a different revision or
// key builds anew, and a product built outside the cache never memoizes.
func TestParsedMemoBuildsOncePerCachedProduct(t *testing.T) {
	type key string
	var parses, builds atomic.Int64
	c := NewParseCache(countingParser(&parses))
	p := c.Parse("rev-a")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := p.Memo(key("x"), func() any { builds.Add(1); return "built" }); v != "built" {
				t.Errorf("memo = %v, want built", v)
			}
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("builds = %d on one cached product, want 1", got)
	}
	p.Memo(key("y"), func() any { builds.Add(1); return nil })
	c.Parse("rev-b").Memo(key("x"), func() any { builds.Add(1); return nil })
	if got := builds.Load(); got != 3 {
		t.Errorf("builds = %d after a new key and a new revision, want 3", got)
	}
	bare := &Parsed{Device: NewDevice("bare", VendorCisco)}
	bare.Memo(key("x"), func() any { builds.Add(1); return nil })
	bare.Memo(key("x"), func() any { builds.Add(1); return nil })
	if got := builds.Load(); got != 5 {
		t.Errorf("builds = %d after two calls on an uncached product, want 5", got)
	}
}
