package sweep

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"routeconv/internal/core"
)

// Cache is the content-addressed on-disk result store: one gob file per
// cell, named by the cell key. Because the key hashes the fully-resolved
// config and the module version, a lookup can never return a result
// computed under different parameters or a different simulator build.
//
// Only the per-trial measurements are stored; the aggregate fields are
// recomputed on load (they are pure functions of the trials), and the
// config is supplied by the caller — it is already encoded in the key.
type Cache struct {
	dir string
}

// cachePayload is the persisted form of a cell result. gob is used rather
// than JSON because trial series legitimately contain NaN (delay bins with
// no arrivals), which JSON cannot represent.
type cachePayload struct {
	Trials []core.TrialResult
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".gob")
}

// Get loads the cached result for key, rehydrating it with cfg, or reports
// a miss. Unreadable or corrupt entries (e.g. a partial write from a
// killed process, though Put's atomic rename makes that unlikely) are
// treated as misses.
func (c *Cache) Get(key string, cfg core.Config) (*core.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var p cachePayload
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, false
	}
	if len(p.Trials) == 0 {
		return nil, false
	}
	return core.NewResult(cfg, p.Trials), true
}

// Put stores a cell result under key, atomically.
func (c *Cache) Put(key string, res *core.Result) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cachePayload{Trials: res.Trials}); err != nil {
		return fmt.Errorf("sweep: encode cache entry: %w", err)
	}
	if err := WriteFileAtomic(c.path(key), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("sweep: write cache entry: %w", err)
	}
	return nil
}
