package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// JournalEntry records one simulated cell: its key and its wall time.
// Entries are appended as single JSON lines.
type JournalEntry struct {
	Key    string `json:"key"`
	ID     string `json:"id"`
	WallMS int64  `json:"wall_ms"`
}

// Journal is the sweep's progress log: an append-only file with one line
// per simulated cell. Nothing reads it back. It does not drive resume — a
// restarted sweep skips the cells its cache serves — and the cache hits
// are listed in the manifest.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. A torn final line — the process died mid-append — is
// newline-terminated so the next entry cannot merge into it.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	if err := endLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: repair journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// endLine appends a newline to a non-empty file whose last byte is not
// one.
func endLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// Record appends a simulated cell and syncs, so a crash immediately after
// a cell finishes still finds it journaled.
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
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
