package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
)

// Journal is a crash-safe, append-only checkpoint log implementing
// Store. Every Save appends one JSONL record — the same
// {"key":...,"data":...} envelope DirStore files — and fsyncs, so a
// sweep killed at any instant loses at most the record being written.
// Open replays the existing log into memory, tolerating a torn tail:
// a final partial line (the record a crash interrupted) is ignored,
// and replay stops at the first undecodable line so garbage can never
// resurrect as results.
//
// Stack a Journal in front of the shared DirStore with Tiered to get
// kill-and-resume sweeps: completed jobs reload from the journal, the
// sweep recomputes only what is missing, and the merged output is
// bit-identical to an uninterrupted run because results are assembled
// in item order regardless of which jobs were replayed.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	entries map[string]json.RawMessage
	path    string
	replay  int
	closed  bool
}

// CheckpointPath is where the sweep checkpoint journal for s lives: an
// append-only JSONL log next to the store's entries.
func (s *DirStore) CheckpointPath() string {
	return filepath.Join(s.dir, "sweep.journal")
}

// OpenCheckpoint opens the sweep checkpoint journal at CheckpointPath.
// With resume its records replay, so a killed sweep picks up where it
// stopped; without, a journal left by an earlier run is deleted first
// and the sweep starts fresh. End the sweep with Journal.Finish.
func (s *DirStore) OpenCheckpoint(resume bool) (*Journal, error) {
	path := s.CheckpointPath()
	if !resume {
		os.Remove(path)
	}
	return OpenJournal(path)
}

// OpenJournal opens (or creates) the checkpoint journal at path and
// replays its records into memory.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	j := &Journal{f: f, entries: make(map[string]json.RawMessage), path: path}
	end, err := j.replayLog()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Truncate the torn tail (if any) so appends extend a well-formed
	// log instead of gluing onto half a record.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

// replayLog loads every complete, decodable record and returns the
// byte offset of the end of the last good line.
func (j *Journal) replayLog() (int64, error) {
	info, err := j.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("runner: journal: %w", err)
	}
	size := info.Size()
	terminated := size == 0
	if size > 0 {
		var last [1]byte
		if _, err := j.f.ReadAt(last[:], size-1); err != nil {
			return 0, fmt.Errorf("runner: journal: %w", err)
		}
		terminated = last[0] == '\n'
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return 0, fmt.Errorf("runner: journal: %w", err)
	}
	var end int64
	sc := bufio.NewScanner(j.f)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // +1 for the newline Scan strips
		// A final line missing its terminating newline is the record a
		// crash interrupted mid-write. Even when the bytes on disk
		// happen to decode, replaying it and appending after it would
		// glue the next record onto the same line — corrupting both at
		// the following replay — so treat it as torn and let Open
		// truncate it away.
		if !terminated && end+int64(len(line)) == size {
			break
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			end += lineLen
			continue
		}
		var env storeEnvelope
		if err := json.Unmarshal(trimmed, &env); err != nil {
			// Torn or corrupt record: stop replay here. Everything from
			// this point on is discarded (and truncated by Open).
			break
		}
		j.entries[env.Key] = env.Data
		j.replay++
		end += lineLen
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		return 0, fmt.Errorf("runner: journal: replay: %w", err)
	}
	return end, nil
}

// Load implements Store.
func (j *Journal) Load(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.entries[key]
	return data, ok
}

// Save implements Store: append one record and fsync. Best-effort per
// the Store contract — an append failure degrades to a warning, the
// in-memory copy still serves this process.
func (j *Journal) Save(key string, data []byte) {
	raw, err := json.Marshal(storeEnvelope{Key: key, Data: json.RawMessage(data)})
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.entries[key] = json.RawMessage(data)
	if _, err := j.w.Write(append(raw, '\n')); err != nil {
		slog.Warn("journal append failed", "err", err)
		return
	}
	if err := j.w.Flush(); err != nil {
		slog.Warn("journal flush failed", "err", err)
		return
	}
	if err := j.f.Sync(); err != nil {
		slog.Warn("journal sync failed", "err", err)
	}
}

// Len returns the number of distinct checkpointed keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Replayed returns how many records Open recovered from disk.
func (j *Journal) Replayed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replay
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the journal file. Further Saves are
// dropped; Loads keep serving the in-memory entries.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	ferr := j.w.Flush()
	serr := j.f.Sync()
	cerr := j.f.Close()
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// Remove closes the journal and deletes its file — call after a sweep
// completes and its results are merged into the durable store, so the
// next run starts from a clean checkpoint.
func (j *Journal) Remove() error {
	if err := j.Close(); err != nil {
		os.Remove(j.path)
		return err
	}
	return os.Remove(j.path)
}

// Finish ends a checkpointed sweep. A sweep that completed, its
// results all merged into the durable store, deletes the journal so
// the next run starts fresh; any other keeps it for a resume.
func (j *Journal) Finish(completed bool) error {
	if completed {
		return j.Remove()
	}
	return j.Close()
}

var _ Store = (*Journal)(nil)
