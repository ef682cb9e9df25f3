package sweep

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// readJournal parses the journal at path, skipping lines that are not a
// whole entry (a torn append).
func readJournal(t *testing.T, path string) []JournalEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []JournalEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e JournalEntry
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.Key != "" {
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []JournalEntry{{Key: "k1", ID: "dbf/d3/single", WallMS: 120}, {Key: "k2", ID: "rip/d3/single", WallMS: 1}}
	for _, e := range want[:1] {
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Reopening appends after what is there.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Record(want[1]); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if got := readJournal(t, path); !reflect.DeepEqual(got, want) {
		t.Errorf("journal = %+v, want %+v", got, want)
	}
}

// TestJournalTornLine simulates a crash mid-append: reopening ends the
// torn line, so the next entry starts on a line of its own.
func TestJournalTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(JournalEntry{Key: "k1", ID: "a", WallMS: 1000}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	const torn = `{"key":"k2","id":"b","wall_`
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Record(JournalEntry{Key: "k3", ID: "c", WallMS: 1000}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"key":"k1","id":"a","wall_ms":1000}` + "\n" + torn + "\n" + `{"key":"k3","id":"c","wall_ms":1000}` + "\n"
	if string(data) != want {
		t.Errorf("journal after torn line:\n%s\nwant:\n%s", data, want)
	}
}
