package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable"
)

// The job journal is the engine's write-ahead log: one append-only
// file of durable frames (internal/durable) under the magic "QJL1",
// each carrying one jobRecord JSON document. Appends are synced before
// the engine acknowledges the job, so "accepted" means "survives a
// process crash". Replay walks frames until the first torn or corrupt
// one, truncates the tail there (a crash mid-append leaves at worst
// one torn final record), and rebuilds the job table from what
// survived.
const (
	journalMagic = "QJL1"
	// maxJournalRecord bounds one record's payload so a corrupted
	// length field cannot demand gigabytes; a SolveRequest body is
	// itself capped at maxRequestBytes, which this dominates.
	maxJournalRecord = maxRequestBytes + (1 << 16)
	// journalFile is the WAL's name inside Config.JournalDir.
	journalFile = "jobs.wal"
)

// jobRecord is one journal entry. Op "accept" carries the request and
// creates the job; op "state" moves it through the lifecycle and, at a
// terminal state, carries the result. Records for one job ID apply in
// file order; replay keeps the last state seen.
type jobRecord struct {
	Op   string    `json:"op"` // accept | state
	ID   string    `json:"id"`
	Time time.Time `json:"time"`

	// accept fields.
	Idem string        `json:"idem,omitempty"`
	Req  *SolveRequest `json:"req,omitempty"`

	// state fields.
	State      JobState     `json:"state,omitempty"`
	Attempts   int          `json:"attempts,omitempty"`
	Migrations int          `json:"migrations,omitempty"`
	CkptIter   int          `json:"ckpt_iter,omitempty"`
	Replayed   bool         `json:"replayed,omitempty"`
	Result     *SolveResult `json:"result,omitempty"`
	Error      string       `json:"error,omitempty"`
}

// encodeJournalRecord frames one record for appending.
func encodeJournalRecord(rec *jobRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding journal record: %w", err)
	}
	return durable.AppendFrame(nil, journalMagic, payload, maxJournalRecord)
}

// decodeJournalRecord parses one framed record from the head of data,
// returning the record and the bytes consumed. A short frame is
// durable.ErrTorn (the normal artifact of a crash mid-append,
// distinguished from corruption only for observability: both
// truncate). It never panics on hostile input and never reads past the
// declared payload (FuzzDecodeJournal holds it to that).
func decodeJournalRecord(data []byte) (*jobRecord, int, error) {
	payload, n, err := durable.NextFrame(data, journalMagic, maxJournalRecord)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal record: %w", err)
	}
	rec := &jobRecord{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, 0, fmt.Errorf("serve: journal record payload: %w", err)
	}
	switch rec.Op {
	case "accept":
		if rec.Req == nil {
			return nil, 0, fmt.Errorf("serve: journal accept record without a request")
		}
	case "state":
		if !rec.State.valid() {
			return nil, 0, fmt.Errorf("serve: journal state record with state %q", rec.State)
		}
	default:
		return nil, 0, fmt.Errorf("serve: journal record op %q", rec.Op)
	}
	if rec.ID == "" {
		return nil, 0, fmt.Errorf("serve: journal record without a job id")
	}
	return rec, n, nil
}

// journal is the open WAL: appends under a mutex, fsync per record,
// compaction by durable.WriteFile. A nil *journal is valid and inert (the
// engine without a JournalDir), so call sites stay unconditional.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	bytes  int64
	closed bool
}

// openJournal opens (creating if needed) dir's WAL and replays it,
// returning the surviving records in file order. A torn or corrupt
// tail is truncated away — counted, not fatal — so a crash mid-append
// costs at most the record being written.
func openJournal(dir string) (*journal, []*jobRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	var recs []*jobRecord
	good := 0
	for good < len(data) {
		rec, n, derr := decodeJournalRecord(data[good:])
		if derr != nil {
			jobJournalDropped.Add(1)
			break
		}
		recs = append(recs, rec)
		good += n
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: seeking journal: %w", err)
	}
	j := &journal{f: f, path: path, bytes: int64(good)}
	jobJournalBytes.Set(float64(j.bytes))
	return j, recs, nil
}

// append frames, writes, and syncs one record. Errors are counted and
// returned; the in-memory job table stays authoritative either way.
func (j *journal) append(rec *jobRecord) error {
	if j == nil {
		return nil
	}
	buf, err := encodeJournalRecord(rec)
	if err != nil {
		jobJournalErrors.Add(1)
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal %w", ErrClosed)
	}
	if _, err := j.f.Write(buf); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	j.bytes += int64(len(buf))
	jobJournalRecords.Add(1)
	jobJournalBytes.Set(float64(j.bytes))
	return nil
}

// size reports the journal's current byte length.
func (j *journal) size() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// compact atomically rewrites the WAL to exactly recs (the live job
// set re-serialized), dropping every superseded state record and every
// evicted job. durable.WriteFile replaces the file whole, so a crash
// mid-compaction leaves either the old or the new journal, never a mix.
func (j *journal) compact(recs []*jobRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("serve: journal %w", ErrClosed)
	}
	var buf []byte
	for _, rec := range recs {
		b, err := encodeJournalRecord(rec)
		if err != nil {
			jobJournalErrors.Add(1)
			return err
		}
		buf = append(buf, b...)
	}
	if err := durable.WriteFile(j.path, buf); err != nil {
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: journal compact: %w", err)
	}
	j.f.Close()
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.closed = true
		jobJournalErrors.Add(1)
		return fmt.Errorf("serve: reopening compacted journal: %w", err)
	}
	j.f = f
	j.bytes = int64(len(buf))
	jobJournalCompactions.Add(1)
	jobJournalBytes.Set(float64(j.bytes))
	return nil
}

// close flushes and closes the WAL file.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	syncErr := j.f.Sync()
	if closeErr := j.f.Close(); syncErr != nil || closeErr != nil {
		jobJournalErrors.Add(1)
	}
}
