package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	rec "repro/internal/recover"
)

func journalPath(dir string) string { return filepath.Join(dir, "jobs.wal") }

// withObs enables metrics for the duration of one test so counter
// deltas are observable.
func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

func sampleRecords() []*jobRecord {
	now := time.Unix(1700000000, 0).UTC()
	return []*jobRecord{
		{Op: "accept", ID: "j-1", Time: now, Idem: "k1",
			Req: &SolveRequest{Scenario: "tiny", PEs: 2, Tol: 1e-9, IdempotencyKey: "k1"}},
		{Op: "state", ID: "j-1", Time: now, State: JobRunning, Attempts: 1, CkptIter: 7},
		{Op: "state", ID: "j-1", Time: now, State: JobCompleted, Attempts: 2, Migrations: 1,
			Result: &SolveResult{Converged: true, Iterations: 42}},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := sampleRecords()
	for _, r := range want {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.size() <= 0 {
		t.Fatalf("journal size %d after 3 appends", j.size())
	}
	j.close()

	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Op != w.Op || r.ID != w.ID || r.State != w.State || r.Attempts != w.Attempts ||
			r.Migrations != w.Migrations || r.CkptIter != w.CkptIter {
			t.Fatalf("record %d: got %+v want %+v", i, r, w)
		}
	}
	if got[0].Req == nil || got[0].Req.Scenario != "tiny" || got[0].Idem != "k1" {
		t.Fatalf("accept record lost its request: %+v", got[0])
	}
	if got[2].Result == nil || !got[2].Result.Converged || got[2].Result.Iterations != 42 {
		t.Fatalf("terminal record lost its result: %+v", got[2])
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a short
// frame; replay keeps every whole record before it and truncates the
// tail so the next append starts on a clean boundary.
func TestJournalTornTailTruncated(t *testing.T) {
	withObs(t)
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()[:2]
	for _, r := range want {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	good := j.size()
	j.close()

	// Simulate the crash: a header that promises more than is there.
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(journalMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(torn[4:], 500)
	if _, err := f.Write(append(torn, "only a fragment"...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dropped0 := jobJournalDropped.Value()
	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records past a torn tail, want 2", len(got))
	}
	if j2.size() != good {
		t.Fatalf("journal size %d after truncation, want %d", j2.size(), good)
	}
	if d := jobJournalDropped.Value() - dropped0; d < 1 {
		t.Fatalf("serve.job.journal.dropped advanced by %d, want >= 1", d)
	}
	// Appends continue cleanly on the truncated file.
	if err := j2.append(sampleRecords()[2]); err != nil {
		t.Fatal(err)
	}
	j2.close()
	j3, got3, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j3.close()
	if len(got3) != 3 || got3[2].State != JobCompleted {
		t.Fatalf("post-truncation append lost: %d records", len(got3))
	}
}

// TestJournalCorruptRecordStopsReplay: a flipped payload bit fails the
// CRC; that record and everything after it are discarded.
func TestJournalCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for _, r := range sampleRecords() {
		offsets = append(offsets, j.size())
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	// Flip one payload byte inside the second record.
	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1]+durable.HeaderLen] ^= 0xff
	if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.close()
	if len(got) != 1 || got[0].ID != "j-1" || got[0].Op != "accept" {
		t.Fatalf("replay past a corrupt record: got %d records %+v", len(got), got)
	}
}

// TestJournalCompact: compaction rewrites the file to just the
// surviving records and later replays see exactly those.
func TestJournalCompact(t *testing.T) {
	withObs(t)
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := j.append(sampleRecords()[1]); err != nil {
			t.Fatal(err)
		}
	}
	big := j.size()
	keep := sampleRecords()[2:]
	compactions0 := jobJournalCompactions.Value()
	if err := j.compact(keep); err != nil {
		t.Fatal(err)
	}
	if j.size() >= big {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", big, j.size())
	}
	if d := jobJournalCompactions.Value() - compactions0; d != 1 {
		t.Fatalf("serve.job.journal.compactions advanced by %d, want 1", d)
	}
	// The compacted journal still accepts appends.
	if err := j.append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	j.close()

	j2, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.close()
	if len(got) != 2 || got[0].State != JobCompleted || got[1].Op != "accept" {
		t.Fatalf("replay after compaction: %d records %+v", len(got), got)
	}
}

// TestJournalNilReceiverSafe: an engine without a JournalDir uses a
// nil *journal everywhere; every method must be inert, not a panic.
func TestJournalNilReceiverSafe(t *testing.T) {
	var j *journal
	if err := j.append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if j.size() != 0 {
		t.Fatal("nil journal has a size")
	}
	if err := j.compact(nil); err != nil {
		t.Fatal(err)
	}
	j.close()
}

func TestDecodeJournalRecordRejects(t *testing.T) {
	enc := func(r *jobRecord) []byte {
		b, err := encodeJournalRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", append([]byte("NOPE"), enc(sampleRecords()[0])[4:]...)},
		{"unknown op", enc(&jobRecord{Op: "upsert", ID: "j-1"})},
		{"accept without request", enc(&jobRecord{Op: "accept", ID: "j-1"})},
		{"state without state", enc(&jobRecord{Op: "state", ID: "j-1"})},
		{"missing id", enc(&jobRecord{Op: "state", State: JobRunning})},
	}
	for _, tc := range cases {
		if _, _, err := decodeJournalRecord(tc.data); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		} else if errors.Is(err, durable.ErrTorn) {
			t.Errorf("%s: misclassified as torn", tc.name)
		}
	}
	// Short data is torn, not corrupt.
	whole := enc(sampleRecords()[0])
	for _, n := range []int{0, 3, durable.HeaderLen - 1, durable.HeaderLen, len(whole) - 1} {
		if _, _, err := decodeJournalRecord(whole[:n]); !errors.Is(err, durable.ErrTorn) {
			t.Errorf("prefix of %d bytes: err = %v, want durable.ErrTorn", n, err)
		}
	}
}

// journalFixture is sampleRecords()[0] as a QJL1 frame, written by the
// journal codec before it moved onto internal/durable. Journals already
// on disk must keep replaying, so these bytes are the format.
const journalFixture = "514a4c31" + "88000000" + "1b988e9e" +
	"7b226f70223a22616363657074222c226964223a226a2d31222c2274696d65223a22" +
	"323032332d31312d31345432323a31333a32305a222c226964656d223a226b31222c" +
	"22726571223a7b227363656e6172696f223a2274696e79222c22706573223a322c22" +
	"746f6c223a31652d392c226964656d706f74656e63795f6b6579223a226b31227d7d"

// TestJournalFormatFixture: the pinned frame replays to the record it
// was made from, and that record encodes back to the same bytes.
func TestJournalFormatFixture(t *testing.T) {
	raw, err := hex.DecodeString(journalFixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 1 || j.size() != int64(len(raw)) {
		t.Fatalf("replayed %d records, journal %d bytes; want 1 record, %d bytes", len(got), j.size(), len(raw))
	}
	want := sampleRecords()[0]
	r := got[0]
	if r.Op != want.Op || r.ID != want.ID || !r.Time.Equal(want.Time) || r.Idem != want.Idem ||
		r.Req == nil || *r.Req != *want.Req {
		t.Fatalf("fixture replayed as %+v (req %+v)", r, r.Req)
	}
	if b, err := encodeJournalRecord(want); err != nil || !bytes.Equal(b, raw) {
		t.Fatalf("record encodes to %x (err %v), fixture is %x", b, err, raw)
	}
}

// TestJournalRefusesCheckpointFrame: a checkpoint file fed to the
// journal decoder is corruption (bad magic), not a torn record.
func TestJournalRefusesCheckpointFrame(t *testing.T) {
	ck := &rec.Checkpoint{P: 1, ElemPE: []int32{0}, X: []float64{1}, R: []float64{2}, PDir: []float64{3}}
	b, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeJournalRecord(b); err == nil || errors.Is(err, durable.ErrTorn) {
		t.Fatalf("checkpoint frame: err = %v, want a corruption error", err)
	}
}

// FuzzDecodeJournal holds the decoder to its contract on hostile
// bytes: no panic, and on success the consumed count stays within the
// input and covers at least a header.
func FuzzDecodeJournal(f *testing.F) {
	for _, r := range sampleRecords() {
		b, err := encodeJournalRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-3])
	}
	f.Add([]byte(journalMagic))
	f.Add([]byte("QJL1\xff\xff\xff\xff\x00\x00\x00\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeJournalRecord(data)
		if err != nil {
			if rec != nil || n != 0 {
				t.Fatalf("error path leaked rec=%v n=%d", rec, n)
			}
			return
		}
		if rec == nil {
			t.Fatal("nil record without error")
		}
		if n < durable.HeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A decoded record must survive re-encoding.
		if _, err := encodeJournalRecord(rec); err != nil {
			t.Fatalf("re-encoding decoded record: %v", err)
		}
	})
}
