package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// JournalEntry records one completed cell: its key, how it was satisfied,
// and its wall time. Entries are appended as single JSON lines.
type JournalEntry struct {
	Key    string `json:"key"`
	ID     string `json:"id"`
	Cached bool   `json:"cached,omitempty"`
	WallMS int64  `json:"wall_ms"`
}

// Journal is the sweep's progress log: an append-only file with one line
// per completed cell. It does not drive resume — an interrupted sweep
// skips the cells its cache serves, journaled or not — and its completed
// set only keeps a restarted sweep from logging a cell twice.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]JournalEntry
}

// OpenJournal opens (creating if needed) the journal at path and loads its
// completed-cell set. A torn final line — the process died mid-append — is
// ignored (that cell simply re-executes) and newline-terminated so the
// next entry cannot merge into it.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("sweep: read journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: repair journal: %w", err)
		}
	}
	j := &Journal{f: f, done: make(map[string]JournalEntry)}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var e JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Key == "" {
			continue // torn or foreign line
		}
		j.done[e.Key] = e
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: scan journal: %w", err)
	}
	return j, nil
}

// Done reports whether key's cell completed in this or a previous run.
func (j *Journal) Done(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.done[key]
	return ok
}

// Len counts the journaled cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends a completed cell and syncs, so a crash immediately after
// a cell finishes still finds it journaled on restart.
func (j *Journal) Record(e JournalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("sweep: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweep: sync journal: %w", err)
	}
	j.done[e.Key] = e
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// RecordAt is a convenience for tests: journal a cell with the given wall
// time.
func (j *Journal) RecordAt(key, id string, wall time.Duration, cached bool) error {
	return j.Record(JournalEntry{Key: key, ID: id, WallMS: wall.Milliseconds(), Cached: cached})
}
