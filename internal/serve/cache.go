package serve

// The content-addressed result cache: certificates keyed by
// routing.CacheKey, held in memory and spilled to one JSON file per
// key so a restarted daemon serves warm results without
// re-enumeration. Entries are immutable once written (equal keys
// guarantee bit-identical Stats), so there is no invalidation — only
// lookup, fill, and the disk round-trip.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pathrouting/internal/routing"
)

// statsDoc is routing.Stats rendered for clients and cache entries:
// every deterministic certificate field plus the (informational,
// non-deterministic) elapsed seconds.
type statsDoc struct {
	Paths         int64   `json:"paths"`
	TotalHits     int64   `json:"total_hits"`
	MaxVertexHits int64   `json:"max_vertex_hits"`
	MaxMetaHits   int64   `json:"max_meta_hits"`
	Bound         int64   `json:"bound"`
	AdjChecked    int64   `json:"adj_checked"`
	ElapsedSec    float64 `json:"elapsed_sec,omitempty"`
}

func statsOf(st routing.Stats) statsDoc {
	return statsDoc{
		Paths:         st.NumPaths,
		TotalHits:     st.TotalHits,
		MaxVertexHits: st.MaxVertexHits,
		MaxMetaHits:   st.MaxMetaHits,
		Bound:         st.Bound,
		AdjChecked:    st.AdjacencyChecked,
		ElapsedSec:    st.Elapsed.Seconds(),
	}
}

// cacheEntry is one cached certificate.
type cacheEntry struct {
	Key         string   `json:"key"`
	Spec        JobSpec  `json:"spec"`
	Stats       statsDoc `json:"stats"`
	Certificate string   `json:"certificate"`
}

type resultCache struct {
	dir string
	mu  sync.Mutex
	mem map[string]*cacheEntry
}

func newResultCache(dir string) *resultCache {
	return &resultCache{dir: dir, mem: make(map[string]*cacheEntry)}
}

// path maps a key to its spill file. Keys are hex sha256 digests, but
// defend anyway: anything outside [0-9a-f] cannot become a path
// component.
func (c *resultCache) path(key string) (string, bool) {
	if key == "" || strings.IndexFunc(key, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) >= 0 {
		return "", false
	}
	return filepath.Join(c.dir, key+".json"), true
}

// get returns the entry for key from memory, falling back to the disk
// spill (and promoting a disk hit into memory).
func (c *resultCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.mem[key]; e != nil {
		return e
	}
	path, ok := c.path(key)
	if !ok {
		return nil
	}
	var e cacheEntry
	if err := readJSON(path, &e); err != nil || e.Key != key {
		return nil
	}
	c.mem[key] = &e
	return &e
}

// put stores the entry in memory and spills it to disk.
func (c *resultCache) put(e *cacheEntry) error {
	c.mu.Lock()
	c.mem[e.Key] = e
	c.mu.Unlock()
	path, ok := c.path(e.Key)
	if !ok {
		return fmt.Errorf("serve: invalid cache key %q", e.Key)
	}
	return writeJSON(path, e)
}

// size reports how many certificates the cache holds (union of memory
// and disk; disk-only entries not yet promoted are counted from the
// spill directory).
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return len(c.mem)
	}
	onDisk := 0
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".json") {
			onDisk++
		}
	}
	return max(onDisk, len(c.mem))
}
